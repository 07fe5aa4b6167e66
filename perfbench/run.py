"""End-to-end benchmark of the GAP query system, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot-lineitem --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``oneshot-lineitem`` — closed loop, one client:
  ``GapEngine(queries, grammar).run(text)`` on 141-423 KB Lineitem;
* ``service-xmark`` — seeded Poisson arrivals from one generator thread
  into an in-process ``QueryService`` over registered ~60 KB XMark
  documents: latency at a fixed rate, alternating with a closed loop of
  four clients for the highest rate that meets the latency limit;
* ``stream-dblp`` — one writer appending 1-7 KB pieces of a ~1.5 MB DBLP
  feed (with non-ASCII text) to a ``StreamManager`` and reading the
  match deltas after every append.

The parent process generates the inputs from ``--seed`` and the DOM
oracle's answers, then starts fresh child processes: several that only
time set-up, and one that sets up and runs the timed part.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.
Everything is written under ``.perfbench_work/`` in the working
directory and removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

#: fresh processes whose set-up time ``setup_s`` is the median of
#: (the timed process is one of them)
SETUP_PROCESSES = 9
#: a run, children included, ends within this many seconds (plus
#: ``--seconds``) or fails
RUN_BUDGET = 140
#: layers each workload must pass through; a traced run in which one of
#: them records no span has lost its attribution and fails
REQUIRED_LAYERS = {
    "oneshot-lineitem": ("xmlstream.split", "xmlstream.lex", "core.kernel"),
    "service-xmark": ("service.service", "core.kernel"),
    "stream-dblp": ("stream.session", "stream.checkpoint", "xmlstream.lex"),
}


def percentile(xs: list[float], p: float) -> float:
    """Linear interpolation between order statistics; inf = failed op."""
    xs = sorted(xs)
    if not xs:
        return math.inf
    pos = (len(xs) - 1) * p
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop: a host-speed yardstick.

    Recorded beside the metrics so a reader can tell host drift from a
    code change; never used to scale them.
    """
    def loop() -> float:
        t0 = perf_counter()
        acc, table = 0, {}
        for i in range(40_000):
            table[i & 255] = acc
            acc = (acc * 31 + i) % 1_000_003
        return perf_counter() - t0

    return statistics.median(loop() for _ in range(9)) * 1e3


def cpu_ticks() -> tuple[int, int]:
    """(stolen, busy + stolen) clock ticks summed over the CPUs.

    Steal is time a vCPU wanted to run but the hypervisor ran someone
    else; printed beside ``host_ref_ms`` as a second drift indicator,
    never used to scale the metrics.
    """
    with open("/proc/stat") as fh:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(x) for x in fh.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


def run_child(role: str, workload: str, workdir: str, deadline: float,
              seconds: float = 0, trace: int = 0, first_cpu: int = 0) -> dict:
    """Run one fresh child process; killed if it outlives ``deadline``."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), role, workload,
           workdir, str(seconds), str(trace), str(first_cpu)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"{role} process for {workload} exited "
                           f"with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  [{role}] {line}")
    return json.loads(lines[-1])


def _lat(xs: list) -> list[float]:
    return [math.inf if x is None else x for x in xs]


def ladder_max_rate(fixed_lat: list[float], rungs: list[dict],
                    limit_ms: float, notes: list[str]) -> tuple[float, int]:
    """Highest service throughput whose p90 meets the limit.

    → ``(requests/s, requests measured)``.  The ladder's lowest point is
    the fixed-rate phase (its offered rate and p90); the closed-loop
    visits above it are pooled, so the rung spans the whole run.  If the
    rung misses the limit, the throughput is interpolated linearly in
    p90 between the two points, so the result moves smoothly instead of
    jumping a whole rung.  If even the fixed rate misses the limit, no
    measured rate meets it and the result is 0.
    """
    from inputs import SERVICE_FIXED_RPS

    lat = _lat([x for r in rungs for x in r["latencies"]])
    ok = sum(1 for x in lat if math.isfinite(x))
    points = [(SERVICE_FIXED_RPS, percentile(fixed_lat, 0.9) * 1e3, len(fixed_lat)),
              (ok / sum(r["seconds"] for r in rungs), percentile(lat, 0.9) * 1e3, len(lat))]
    notes.append(f"ladder: fixed rate {points[0][0]:.2f} requests/s, "
                 f"p90 {points[0][1]:.1f} ms (n={points[0][2]}); "
                 f"{rungs[0]['clients']} clients {points[1][0]:.2f} requests/s, "
                 f"p90 {points[1][1]:.1f} ms (n={points[1][2]})")
    (r0, q0, _), (r1, q1, n) = points
    if q0 > limit_ms:
        notes.append(f"no rung meets the {limit_ms:.0f} ms p90 limit")
        return 0.0, n
    if q1 <= limit_ms:
        return max(r0, r1), n
    if math.isfinite(q1):
        return max(r0, r0 + (r1 - r0) * (limit_ms - q0) / (q1 - q0)), n
    return r0, n


def end_to_end(workload: str, inp: dict, setups: list[float], timed: dict):
    """→ (metrics {name: (value, unit, samples)}, attempted, failed, notes)."""
    from inputs import SERVICE_LIMIT_MS

    notes: list[str] = []
    m: dict[str, tuple[float, str, int]] = {}
    if workload == "service-xmark":
        fixed = timed["fixed"]
        lat = _lat(fixed["latencies"])
        rungs = timed["rungs"]
        attempted = fixed["attempted"] + sum(r["attempted"] for r in rungs)
        failed = fixed["failed"] + sum(r["failed"] for r in rungs)
        rate, n_rungs = ladder_max_rate(lat, rungs, SERVICE_LIMIT_MS, notes)
        doc_bytes = [len(d.encode("utf-8")) for d in inp["docs"]]
        mean_bytes = statistics.fmean(doc_bytes[d] for d, _q in inp["requests"][:1000])
        m["mb_per_s"] = (rate * mean_bytes / 1e6, "MB/s", n_rungs)
        m["max_rate_rps"] = (rate, "1/s", n_rungs)
        late = sorted(timed["late"])
        notes.append(f"bench.generator.late_ms_p99 = {percentile(late, 0.99) * 1e3:.3f} ms, "
                     f"late_ms_max = {max(late, default=0) * 1e3:.3f} ms (n={len(late)})")
        for e in fixed["errors"] + [e for r in rungs for e in r["errors"]]:
            notes.append(f"error: {e}")
    else:
        ops = timed["ops"]
        lat = _lat(ops["latencies"])
        attempted, failed = ops["attempted"], ops["failed"]
        ok = sum(1 for x in lat if math.isfinite(x))
        busy = max(ops["busy_s"], 1e-9)  # 0 only when every operation failed
        m["mb_per_s"] = (ops["bytes"] / busy / 1e6, "MB/s", ok)
        m["max_rate_rps"] = (ok / busy, "1/s", ok)
    n = len(lat)
    m["latency_p50_ms"] = (percentile(lat, 0.5) * 1e3, "ms", n)
    # printed, not gated (see the README): the service's fixed-rate p90
    # follows the hypervisor's steal, and on oneshot and the service the
    # p99 rests on 100-220 samples, too few for a steady p99
    for name, p in (("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)):
        notes.append(f"{name} = {percentile(lat, p) * 1e3:.6g} ms (n={n})")
    m["setup_s"] = (statistics.median(setups), "s", len(setups))
    m["peak_rss_mb"] = (timed["peak_rss_mb"], "MB", 1)
    return m, attempted, failed, notes


def per_layer(workload: str, timed: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics and the per-op table of the traced run."""
    from spans import LAYERS

    tr = timed["trace"]
    c = tr["counts"]
    if workload == "service-xmark":
        untraced, traced = _lat(timed["fixed"]["latencies"]), _lat(timed["traced"]["latencies"])
    else:
        untraced, traced = _lat(timed["ops"]["latencies"]), _lat(timed["ops"]["traced"])
    n_ops = max(1, len(traced))
    layers = dict(tr["layers_s"])
    rows: list[tuple[str, float]] = []
    out: dict[str, tuple[float, str]] = {}

    if workload == "service-xmark":
        v0, v1 = timed["varz"]

        def stage(name):
            a, b = v0["latency"]["stages"][name], v1["latency"]["stages"][name]
            return (b["sum"] - a["sum"]) / max(1, b["count"] - a["count"]) * 1e3

        qw, ba, ex, rs = (stage(s) for s in ("queue_wait", "batch_assembly",
                                             "execute", "respond"))
        # batches overlap on the worker threads, so their layer self
        # times are apportioned to one request's execute time by share
        total = sum(layers.values())
        per_req = {k: v / total * ex if total else 0.0 for k, v in layers.items()}
        rows += [("service.batching.queue_wait", qw),
                 ("service.batching.batch_assembly", ba)]
        rows += [(k, per_req.get(k, 0.0)) for k in LAYERS if k in per_req]
        rows += [("service.service.respond", rs)]
        mean_lat = statistics.fmean(x for x in traced if math.isfinite(x)) * 1e3
        rows.append(("unattributed", mean_lat - qw - ba - ex - rs))
        ms = per_req
        bs0, bs1 = v0["batch_size"], v1["batch_size"]
        e0, e1 = v0["engine_cache"], v1["engine_cache"]
        hits = e1.get("hit", 0) - e0.get("hit", 0)
        misses = e1.get("miss", 0) - e0.get("miss", 0)
        out.update({
            "service.batching.queue_wait_ms": (qw, "ms"),
            "service.batching.batch_assembly_ms": (ba, "ms"),
            "service.batching.batch_size_mean": (
                (bs1["sum"] - bs0["sum"]) / max(1, bs1["count"] - bs0["count"]), "count"),
            "service.batching.rejected": (
                v1["requests"].get("rejected", 0) - v0["requests"].get("rejected", 0), "count"),
            "service.service.execute_ms": (ex, "ms"),
            "service.service.respond_ms": (rs, "ms"),
            "service.service.engine_cache_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        })
        late = sorted(timed["late"])
        out["bench.generator.late_ms_p99"] = (percentile(late, 0.99) * 1e3, "ms")
        out["bench.generator.late_ms_max"] = (max(late, default=0) * 1e3, "ms")
        op_ms = mean_lat
    else:
        ms = {k: v / n_ops * 1e3 for k, v in layers.items()}
        rows += [(k, ms[k]) for k in LAYERS if k in ms]
        rows.append(("unattributed", ms.get("unattributed", 0.0)))
        op_ms = tr["root_s"] / n_ops * 1e3
        for name in ("service.batching.queue_wait_ms", "service.batching.batch_assembly_ms",
                     "service.service.execute_ms", "service.service.respond_ms"):
            out[name] = (0.0, "ms")
        for name in ("service.batching.batch_size_mean", "service.batching.rejected"):
            out[name] = (0.0, "count")
        out["service.service.engine_cache_hit_ratio"] = (0.0, "ratio")
        out["bench.generator.late_ms_p99"] = (0.0, "ms")
        out["bench.generator.late_ms_max"] = (0.0, "ms")

    def per_op(key):
        return c.get(key, 0.0) / n_ops

    lex_s = layers.get("xmlstream.lex", 0.0)
    kernel_tokens = c.get("core.kernel.tokens", 0.0)
    memo = tr["memo"]
    out.update({
        "xmlstream.split.ms": (ms.get("xmlstream.split", 0.0), "ms"),
        "xmlstream.split.bytes": (per_op("xmlstream.split.bytes"), "bytes"),
        "xmlstream.lex.ms": (ms.get("xmlstream.lex", 0.0), "ms"),
        "xmlstream.lex.tokens": (per_op("xmlstream.lex.tokens"), "count"),
        "xmlstream.lex.mb_per_s": (
            c.get("xmlstream.lex.bytes", 0.0) / lex_s / 1e6 if lex_s else 0.0, "MB/s"),
        "xpath.compile.ms": (ms.get("xpath.compile", 0.0), "ms"),
        "xpath.compile.calls": (per_op("xpath.compile.calls"), "count"),
        "core.inference.ms": (ms.get("core.inference", 0.0), "ms"),
        "xpath.subseq.plan_ms": (ms.get("xpath.subseq", 0.0), "ms"),
        "xpath.subseq.persist_ms": (ms.get("xpath.subseq.persist", 0.0), "ms"),
        "xpath.subseq.hits": (memo["hits"], "count"),
        "xpath.subseq.misses": (memo["misses"], "count"),
        "xpath.subseq.rejects": (memo["rejects"], "count"),
        "xpath.subseq.hit_ratio": (
            memo["hits"] / max(1, memo["hits"] + memo["misses"]), "ratio"),
        "core.kernel.ms": (ms.get("core.kernel", 0.0), "ms"),
        "core.kernel.tokens": (per_op("core.kernel.tokens"), "count"),
        "core.kernel.stack_token_share": (
            c.get("core.kernel.stack_tokens", 0.0) / kernel_tokens if kernel_tokens else 0.0,
            "ratio"),
        "core.kernel.starting_paths_avg": (
            c.get("core.kernel.starting_paths", 0.0) / max(1, c.get("core.kernel.chunks", 0)),
            "count"),
        "core.kernel.paths_eliminated": (per_op("core.kernel.paths_eliminated"), "count"),
        "core.kernel.switches": (per_op("core.kernel.switches"), "count"),
        "transducer.mapping.ms": (ms.get("transducer.mapping", 0.0), "ms"),
        "transducer.mapping.misspeculations": (
            per_op("transducer.mapping.misspeculations"), "count"),
        "transducer.mapping.reprocessed_tokens": (
            per_op("transducer.mapping.reprocessed_tokens"), "count"),
        "xpath.filtering.ms": (ms.get("xpath.filtering", 0.0), "ms"),
        "parallel.backend.wait_ms": (ms.get("parallel.backend", 0.0), "ms"),
        "store.read_ms": (_mean_ms(c, "store.read_s", "store.reads"), "ms"),
        "store.write_ms": (_mean_ms(c, "store.write_s", "store.writes"), "ms"),
        "store.hit_ratio": (c.get("store.hits", 0.0) / max(1, c.get("store.reads", 0)), "ratio"),
        "store.bytes_written": (per_op("store.bytes_written"), "bytes"),
        "stream.session.seal_ms": (ms.get("stream.session", 0.0) + sum(
            ms.get(k, 0.0) for k in ("core.kernel", "xpath.subseq", "transducer.mapping",
                                     "xpath.filtering")) if "stream.session" in ms else 0.0,
            "ms"),
        "stream.session.chunks_sealed": (per_op("stream.session.chunks_sealed"), "count"),
        "stream.session.lag_bytes_max": (c.get("stream.session.lag_bytes_max", 0.0), "bytes"),
        "stream.checkpoint.save_ms": (ms.get("stream.checkpoint", 0.0), "ms"),
        "stream.hub.read_ms": (ms.get("stream.hub", 0.0), "ms"),
        "stream.hub.gap": (c.get("stream.hub.gap", 0.0), "count"),
        "runtime.gc.pause_ms": (tr["gc_pause_s"] / n_ops * 1e3, "ms"),
        "runtime.gc.gen2_collections": (c.get("runtime.gc.gen2_collections", 0.0), "count"),
        "bench.unattributed_ms": (dict(rows).get("unattributed", 0.0), "ms"),
        "bench.trace_overhead_ms": (
            (percentile(traced, 0.5) - percentile(untraced, 0.5)) * 1e3, "ms"),
        "bench.ops_traced": (float(len(traced)), "count"),
    })

    lines = [f"per-op self time ({workload}, {len(traced)} traced ops, "
             f"mean op {op_ms:.3f} ms)",
             f"  {'layer':34s} {'self ms':>10s} {'share':>7s}"]
    for name, v in rows:
        lines.append(f"  {name:34s} {v:10.3f} {v / op_ms if op_ms else 0:7.1%}")
    counts = {k: round(v / n_ops, 3) for k, v in sorted(c.items())
              if not k.endswith("_s") and "max" not in k}
    lines.append(f"  counts per op: {json.dumps(counts)}")
    setup = tr["setup_layers_s"]
    if setup:
        lines.append(f"  traced set-up ({tr['setup_root_s'] * 1e3:.1f} ms): " + ", ".join(
            f"{k} {v * 1e3:.1f} ms" for k, v in sorted(setup.items(), key=lambda kv: -kv[1])))
    lines.append(f"  tracing overhead: traced p50 - untraced p50 = "
                 f"{out['bench.trace_overhead_ms'][0]:.3f} ms")
    return out, lines


def _mean_ms(c: dict, total: str, calls: str) -> float:
    return c.get(total, 0.0) / c[calls] * 1e3 if c.get(calls) else 0.0


def _number(value: float) -> float:
    return value if math.isfinite(value) else 1e12


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("oneshot-lineitem", "service-xmark", "stream-dblp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import inputs

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        host0 = host_reference_ms()
        ticks0 = cpu_ticks()
        t0 = perf_counter()
        inp = inputs.INPUTS_FOR[args.workload](args.seed)
        with open(os.path.join(workdir, "inputs.pkl"), "wb") as fh:
            pickle.dump(inp, fh)
        correct = True
        if args.workload == "stream-dblp":
            # the stream's deltas are checked against the oracle; the
            # batch engine must agree with the same oracle on each feed
            from repro import GapEngine

            for feed, want in zip(inp["feeds"], inp["expected"]):
                got = GapEngine(inp["queries"], grammar=inp["grammar"]).run(feed)
                if got.matches != want:
                    print("batch GapEngine.run differs from the oracle")
                    correct = False
        print(f"inputs and oracle: {perf_counter() - t0:.2f} s")

        deadline = t0 + RUN_BUDGET + args.seconds
        if args.workload == "service-xmark":
            run_child("populate", args.workload, workdir, deadline)
        setups: list[float] = []

        def setup_only(first_cpu: int) -> None:
            nonlocal correct
            r = run_child("setup", args.workload, workdir, deadline,
                          first_cpu=first_cpu)
            setups.append(r["setup_s"])
            correct = correct and r["setup_ok"]

        # set-up-only processes run half before and half after the timed
        # one, so their median spans the run's host speed, not one moment
        before = (SETUP_PROCESSES - 1) // 2 if not args.trace else 0
        after = SETUP_PROCESSES - 1 - before if not args.trace else 0
        for i in range(before):
            setup_only(i + 1)
        timed = run_child("timed", args.workload, workdir, deadline,
                          args.seconds, args.trace)
        setups.append(timed["setup_s"])
        correct = correct and timed["setup_ok"]
        for i in range(after):
            setup_only(before + i + 1)
        host1 = host_reference_ms()
        ticks1 = cpu_ticks()

        if args.trace:
            phases = ([timed["fixed"], timed["traced"]]
                      if args.workload == "service-xmark" else [timed["ops"]])
            attempted = sum(p["attempted"] for p in phases)
            failed = sum(p["failed"] for p in phases)
            notes = []
        else:
            metrics, attempted, failed, notes = end_to_end(
                args.workload, inp, setups, timed)
        correct = correct and failed == 0
        print(f"workload {args.workload} seed {args.seed}: "
              f"{attempted} operations, {failed} failed")
        print(f"host_ref_ms start={host0:.3f} end={host1:.3f}")
        stolen, wanted = (b - a for a, b in zip(ticks0, ticks1))
        print(f"host_steal_share = {stolen / max(1, wanted):.3f} "
              f"(CPU time stolen by the hypervisor / CPU time wanted, over the run)")
        for line in notes:
            print(line)
        if args.trace:
            layer_metrics, lines = per_layer(args.workload, timed)
            for line in lines:
                print(line)
            spans = timed["trace"]["spans"]
            for layer in REQUIRED_LAYERS[args.workload]:
                if not spans.get(layer):
                    print(f"layer {layer} recorded no span: attribution is broken")
                    correct = False
            for name, (value, unit) in layer_metrics.items():
                print(f"{name} = {value:.6g} {unit}")
            result = {name: {"value": _number(v), "unit": u}
                      for name, (v, u) in layer_metrics.items()}
        else:
            print(f"error_rate = {failed / max(1, attempted):.6f} fraction (n={attempted})")
            for name, (value, unit, n) in metrics.items():
                print(f"{name} = {value:.6g} {unit} (n={n})")
            result = {name: {"value": _number(v), "unit": u}
                      for name, (v, u, _n) in metrics.items()}
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": result}))
        return 0 if correct else 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
