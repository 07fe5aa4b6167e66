"""The three workloads as the program's users drive them.

Each workload has a ``setup`` (timed from imports done to the first
checked result) and a timed part.  They run inside a fresh child
process (``child.py``); the parent only generates inputs and turns the
returned samples into metrics.  Every result is compared with the DOM
oracle's answer; a mismatch, an exception, a refusal or an expiry is a
failed operation.

``trace`` is ``None`` in the end-to-end runs.  In the traced run it is
a :class:`spans.Tracer`; closed loops then alternate untraced and
traced operations so host drift hits both sides alike, and the open
loop runs an untraced phase followed by a traced one.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_left
import threading
from concurrent.futures import wait as wait_futures
from time import perf_counter, sleep

from inputs import SERVICE_FIXED_RPS

#: untimed operations before a closed loop starts timing (memo warm-up)
WARMUP_SECONDS = 1.5
#: an untraced closed loop runs past its time until it has this many
#: operations, so a p90 always rests on at least 100 samples
MIN_OPS = 100


class Samples:
    """Latencies and outcomes of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.traced: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.bytes = 0
        self.busy = 0.0

    def add(self, seconds: float, ok: bool, nbytes: int = 0,
            traced: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            seconds = float("inf")
        (self.traced if traced else self.latencies).append(seconds)
        if not traced and ok:
            self.bytes += nbytes
            self.busy += seconds

    def to_dict(self) -> dict:
        def json_safe(xs: list[float]) -> list:
            return [None if x == float("inf") else x for x in xs]

        return {"latencies": json_safe(self.latencies),
                "traced": json_safe(self.traced),
                "attempted": self.attempted, "failed": self.failed,
                "bytes": self.bytes, "busy_s": self.busy}


def _closed_loop(op, seconds: float, trace) -> Samples:
    """Run ``op(i) -> (ok, nbytes)`` until time is up and MIN_OPS are done."""
    end = perf_counter() + WARMUP_SECONDS
    i = 0
    while perf_counter() < end:
        op(i)
        i += 1
    samples = Samples()
    end = perf_counter() + seconds
    min_ops = MIN_OPS if trace is None else 0
    while perf_counter() < end or len(samples.latencies) < min_ops:
        traced = trace is not None and i % 2 == 1
        if traced:
            trace.install()
        t0 = perf_counter()
        try:
            if traced:
                with trace.op(i):
                    ok, nbytes = op(i)
            else:
                ok, nbytes = op(i)
        except Exception as exc:  # a failed operation, counted below
            print(f"operation {i} raised {exc!r}", flush=True)
            ok, nbytes = False, 0
        dt = perf_counter() - t0
        if traced:
            trace.uninstall()
        samples.add(dt, ok, nbytes, traced)
        i += 1
    return samples


# -- oneshot-lineitem ------------------------------------------------------

def oneshot_setup(inp: dict, workdir: str):
    from repro import GapEngine

    engine = GapEngine(inp["queries"], grammar=inp["grammar"], n_chunks=8)
    k = inp["setup_doc"]
    ok = engine.run(inp["docs"][k]).matches == inp["expected"][k]
    return ok, None


def oneshot_timed(inp: dict, state, seconds: float, trace) -> dict:
    from repro import GapEngine

    docs, expected, order = inp["docs"], inp["expected"], inp["order"]
    sizes = [len(d.encode("utf-8")) for d in docs]
    queries, grammar = inp["queries"], inp["grammar"]

    def op(i: int):
        k = order[i % len(order)]
        engine = GapEngine(queries, grammar=grammar, n_chunks=8)
        return engine.run(docs[k]).matches == expected[k], sizes[k]

    return {"ops": _closed_loop(op, seconds, trace).to_dict()}


# -- service-xmark ----------------------------------------------------------

def _service(workdir: str):
    from repro.service import QueryService, ServiceConfig

    return QueryService(ServiceConfig(artifact_store=f"{workdir}/store")).start()


def _check_response(inp: dict, doc: int, queries, response: dict) -> bool:
    expected = inp["expected"][doc]
    return all(response["matches"].get(q) == expected[q] for q in queries)


def service_setup(inp: dict, workdir: str):
    svc = _service(workdir)
    try:
        ids = [svc.register(d, grammar=inp["grammar"]).doc_id for d in inp["docs"]]
        doc, queries = inp["requests"][0]
        ok = _check_response(inp, doc, queries, svc.query(ids[doc], list(queries)))
    except BaseException:
        svc.close()
        raise
    return ok, ServiceState(svc, ids)


class ServiceState:
    def __init__(self, svc, ids: list[str]) -> None:
        self.svc, self.ids = svc, ids

    def close(self) -> None:
        self.svc.close()


def service_populate(inp: dict, workdir: str) -> None:
    """Untimed: fill the artifact store the warm restarts read."""
    ok, state = service_setup(inp, workdir)
    state.close()
    if not ok:
        raise RuntimeError("service answer differs from the oracle")


class OpenLoop:
    """One generator thread sending seeded Poisson arrivals.

    Latency runs from each request's due time, so a stall also charges
    the requests that queued behind it; ``late`` records how far behind
    its schedule the generator itself ran.
    """

    def __init__(self, svc, ids: list[str], inp: dict, next_request: int,
                 arrivals: random.Random) -> None:
        self.svc, self.ids, self.inp = svc, ids, inp
        self.next_request = next_request
        self.arrivals = arrivals
        self.late: list[float] = []

    def run(self, rate: float, seconds: float) -> list[dict]:
        """Offer ``rate`` requests/s for ``seconds``; await every reply."""
        records: list[dict] = []
        requests = self.inp["requests"]

        def generate() -> None:
            t = perf_counter()
            end = t + seconds
            t += self.arrivals.expovariate(rate)
            while t < end:
                delay = t - perf_counter()
                if delay > 0:
                    sleep(delay)
                self.late.append(max(0.0, perf_counter() - t))
                doc, queries = requests[self.next_request % len(requests)]
                self.next_request += 1
                rec = {"due": t, "doc": doc, "queries": queries}
                records.append(rec)
                try:
                    fut = self.svc.submit(self.ids[doc], list(queries))
                except Exception as exc:  # refusal (QueueFull) is a failure
                    rec["error"] = repr(exc)
                    rec["done"] = perf_counter()
                else:
                    rec["future"] = fut
                    fut.add_done_callback(
                        lambda _f, rec=rec: rec.__setitem__("done", perf_counter()))
                t += self.arrivals.expovariate(rate)
            delay = end - perf_counter()
            if delay > 0:
                sleep(delay)

        gen = threading.Thread(target=generate, name="perfbench-generator")
        gen.start()
        gen.join()
        futures = [r["future"] for r in records if "future" in r]
        wait_futures(futures, timeout=120)
        for rec in records:
            fut = rec.pop("future", None)
            if fut is None:
                continue
            if not fut.done():
                rec["error"] = "no reply within 120 s"
                rec["done"] = float("inf")
            elif fut.exception() is not None:
                rec["error"] = repr(fut.exception())
            elif not _check_response(self.inp, rec["doc"], rec["queries"],
                                     fut.result()):
                rec["error"] = "result differs from the oracle"
        return records


def _summary(records: list[dict]) -> dict:
    return {"latencies": [None if "error" in r else r["done"] - r["due"]
                          for r in records],
            "attempted": len(records),
            "failed": sum(1 for r in records if "error" in r),
            "errors": sorted({r["error"] for r in records if "error" in r})[:3]}


#: the service run alternates CYCLES fixed-rate phases, together
#: FIXED_SHARE of the run, with a closed-loop rung in the time between,
#: so both kinds of sample span the host's speed drift
CYCLES = 3
FIXED_SHARE = 0.8
#: closed-loop clients of the rung above the fixed rate, each keeping one
#: request in flight: as many as the service has workers, which keeps it
#: busy without more threads queueing for the interpreter lock
LADDER_CLIENTS = 4


def _closed_rung(svc, ids: list[str], inp: dict, clients: int, seconds: float,
                 first_request: int) -> dict:
    """``clients`` threads, each sending its next request on a reply."""
    requests = inp["requests"]
    lock = threading.Lock()
    cursor = [first_request]
    records: list[dict] = []
    end = perf_counter() + seconds

    def client() -> None:
        while perf_counter() < end:
            with lock:
                doc, queries = requests[cursor[0] % len(requests)]
                cursor[0] += 1
            rec = {"doc": doc, "queries": queries, "due": perf_counter()}
            try:
                response = svc.submit(ids[doc], list(queries)).result(timeout=120)
            except Exception as exc:  # refusal, expiry or error: a failure
                rec["error"] = repr(exc)
            else:
                if not _check_response(inp, doc, queries, response):
                    rec["error"] = "result differs from the oracle"
            rec["done"] = perf_counter()
            with lock:
                records.append(rec)

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}")
               for i in range(clients)]
    t0 = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out = _summary(records)
    out.update(clients=clients, seconds=perf_counter() - t0,
               next_request=cursor[0])
    return out


def service_timed(inp: dict, state: ServiceState, seconds: float, trace) -> dict:
    svc, ids = state.svc, state.ids
    try:
        loop = OpenLoop(svc, ids, inp, 1, random.Random(inp["arrival_seed"]))
        if trace is not None:
            half = seconds / 2
            untraced = loop.run(SERVICE_FIXED_RPS, half)
            before = svc.varz()
            trace.install()
            try:
                traced = loop.run(SERVICE_FIXED_RPS, half)
            finally:
                trace.uninstall()
            return {"fixed": _summary(untraced), "traced": _summary(traced),
                    "varz": [before, svc.varz()], "late": loop.late}

        t0 = perf_counter()
        fixed: list[dict] = []
        rungs: list[dict] = []
        for cycle in range(1, CYCLES + 1):
            fixed += loop.run(SERVICE_FIXED_RPS, FIXED_SHARE * seconds / CYCLES)
            left = t0 + cycle * seconds / CYCLES - perf_counter()
            rung = _closed_rung(svc, ids, inp, LADDER_CLIENTS, max(0.5, left),
                                loop.next_request)
            loop.next_request = rung.pop("next_request")
            rungs.append(rung)
        return {"fixed": _summary(fixed), "rungs": rungs, "late": loop.late}
    finally:
        svc.close()


# -- stream-dblp --------------------------------------------------------------

class StreamWriter:
    """One writer feeding DBLP feeds through a ``StreamManager``."""

    def __init__(self, inp: dict, workdir: str) -> None:
        from repro.store import ArtifactStore
        from repro.stream import StreamManager

        self.inp = inp
        # a store per process: a second process on the same store would
        # resume the first one's stream from its checkpoint
        self.mgr = StreamManager(
            store=ArtifactStore(f"{workdir}/store-{os.getpid()}"))
        self.n_streams = 0
        self.pieces = inp["pieces"]
        self.feed_bytes = inp["piece_bytes"]
        self._open()

    def _open(self) -> None:
        self.feed = self.n_streams % len(self.inp["feeds"])
        state, _ = self.mgr.create(f"feed-{self.n_streams}", self.inp["queries"],
                                   grammar=self.inp["grammar"])
        self.n_streams += 1
        self.sid = state.stream_id
        self.piece = 0
        self.seq = 0
        self.got: dict[str, list[int]] = {q: [] for q in self.inp["queries"]}
        self.committed = 0

    def _read(self) -> bool:
        """Take new deltas; each must equal the oracle on its span."""
        reply = self.mgr.read_deltas(self.sid, since=self.seq, timeout=0)
        expected = self.inp["expected"][self.feed]
        ok = reply["gap"] == 0
        for d in reply["deltas"]:
            self.seq = d["seq"]
            for q, offs in d["matches"].items():
                # the oracle's offsets are in document order
                e = expected[q]
                want = e[bisect_left(e, d["begin"]):bisect_left(e, d["end"])]
                ok = ok and offs == want
                self.got[q].extend(offs)
        return ok

    def step(self) -> tuple[bool, int, bool]:
        """One operation: append a piece (or finalize) and read deltas.

        Returns ``(ok, bytes appended, delta seen)``.
        """
        pieces = self.pieces[self.feed]
        if self.piece < len(pieces):
            reply = self.mgr.append(self.sid, pieces[self.piece])
            self.committed = reply["offset"] - reply["lag_bytes"]
            nbytes = self.feed_bytes[self.feed][self.piece]
            self.piece += 1
            seen = self.seq
            return self._read(), nbytes, self.seq != seen
        self.mgr.finalize(self.sid)
        ok = self._read() and self.got == self.inp["expected"][self.feed]
        self.mgr.delete(self.sid)
        self._open()
        return ok, 0, True

    def check_prefix(self) -> bool:
        """Deltas read so far equal the oracle below the sealed offset."""
        expected = self.inp["expected"][self.feed]
        return all(self.got[q] == [o for o in expected[q] if o < self.committed]
                   for q in self.got)

    def close(self) -> None:
        self.mgr.close()


def stream_setup(inp: dict, workdir: str):
    writer = StreamWriter(inp, workdir)
    ok, seen = True, False
    while not seen:
        step_ok, _, seen = writer.step()
        ok = ok and step_ok
    return ok, writer


def stream_timed(inp: dict, writer: StreamWriter, seconds: float, trace) -> dict:
    def op(_i: int):
        ok, nbytes, _ = writer.step()
        return ok, nbytes

    try:
        samples = _closed_loop(op, seconds, trace)
        if not writer.check_prefix():
            samples.failed += 1
        return {"ops": samples.to_dict(), "streams": writer.n_streams}
    finally:
        writer.close()


WORKLOADS = {
    "oneshot-lineitem": (oneshot_setup, oneshot_timed, None),
    "service-xmark": (service_setup, service_timed, service_populate),
    "stream-dblp": (stream_setup, stream_timed, None),
}
