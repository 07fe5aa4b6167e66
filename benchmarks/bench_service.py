"""Service load driver: batched merged passes vs one engine per request.

The serving-layer claim (ISSUE 5, backed by the paper's Figure 10 /
Table 5 multi-query result): coalescing concurrent requests for the
same document into ONE merged-automaton pass amortises the document
walk, so a warm service beats the naive one-engine-per-request
baseline by well over 2× on concurrent load.

The experiment: an XMark-style document, 32 concurrent requests drawn
from an 8-query pool, answered two ways —

* **baseline** — every request constructs a fresh ``GapEngine`` over
  its single query and scans the document (what scripting the one-shot
  CLI per request would do; the structural compile cache stays on, so
  the baseline is as good as that path gets);
* **batched** — a warm :class:`~repro.service.QueryService` ingests the
  document once (pre-lexed) and the scheduler merges concurrent
  requests into few passes.

Both modes answer the same 32 requests from 32 client threads; the
recorded metric is requests/second.  The acceptance gate asserts the
batched/baseline ratio ≥ 2×.

A third round is **open-loop** (fixed arrival rate, the latency-under-
load model): requests arrive on a fixed schedule whether or not earlier
ones finished — the model that exposes queueing delay, which a
closed-loop driver (clients wait for responses before sending more)
structurally hides.  The service runs with request tracing on and a
zero slow-log threshold, so every request's stage breakdown (queue
wait / batch assembly / execute / respond) is captured; the report is
client-observed p50/p95/p99 *plus* the same percentiles per stage, all
written into ``results/service_load.*``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import GapEngine
from repro.bench import generate_document
from repro.bench.reporting import format_table
from repro.datasets import dataset_by_name, generate_query_set
from repro.obs.reqtrace import STAGES
from repro.service import QueryService, ServiceConfig

from conftest import emit

SCALE = 10.0
N_CHUNKS = 8
N_REQUESTS = 32
N_CLIENTS = 32
QUERY_POOL = 8  # >= the issue's "4+ queries per batch"
#: open-loop phase: request count and the fraction of measured batched
#: capacity the arrival rate is pinned to (below 1.0 = a stable queue)
N_OPEN_REQUESTS = 48
OPEN_RATE_FRACTION = 0.6


def _baseline_round(text, grammar, requests):
    """One engine per request, 32 concurrent clients."""
    def serve_one(query: str):
        engine = GapEngine([query], grammar=grammar, n_chunks=N_CHUNKS,
                           backend="serial")
        try:
            return {query: list(engine.run(text).matches[query])}
        finally:
            engine.close()

    with ThreadPoolExecutor(N_CLIENTS) as clients:
        t0 = time.perf_counter()
        responses = list(clients.map(serve_one, requests))
        elapsed = time.perf_counter() - t0
    return elapsed, responses


def _batched_round(service, doc_id, requests):
    """The warm service, same 32 concurrent clients."""
    def serve_one(query: str):
        response = service.query(doc_id, [query])
        return {query: response["matches"][query]}, response["batch"]["size"]

    with ThreadPoolExecutor(N_CLIENTS) as clients:
        t0 = time.perf_counter()
        out = list(clients.map(serve_one, requests))
        elapsed = time.perf_counter() - t0
    responses = [r for r, _ in out]
    sizes = [s for _, s in out]
    return elapsed, responses, sizes


def _percentile(values, q: float) -> float:
    """Exact linear-interpolation percentile of a measured sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _open_loop_round(service, doc_id, requests, rate):
    """Fixed-arrival-rate submission; returns per-request client latency.

    Arrivals follow the schedule ``t_i = i / rate`` regardless of how
    earlier requests are doing (``submit`` is non-blocking admission),
    and latency is measured from the *scheduled* arrival to response —
    so a backed-up service shows its queueing delay instead of
    silently slowing the arrival process down.
    """
    import threading

    done_at: dict[int, float] = {}
    lock = threading.Lock()

    def _stamp(idx: int):
        def callback(_future) -> None:
            # stamped by the completing worker thread, not by when the
            # driver gets around to result() — the honest latency
            with lock:
                done_at[idx] = time.perf_counter()
        return callback

    start = time.perf_counter()
    pending = []
    for i, query in enumerate(requests):
        target = start + i / rate
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        future = service.submit(doc_id, [query])
        future.add_done_callback(_stamp(i))
        pending.append((i, target, future))
    for _i, _target, future in pending:
        future.result(timeout=60.0)
    return [done_at[i] - target for i, target, _f in pending]


@pytest.fixture(scope="module")
def load_results():
    ds = dataset_by_name("xmark")
    text = generate_document(ds.name, SCALE, 0)
    queries = generate_query_set(ds, QUERY_POOL)
    requests = [queries[i % len(queries)] for i in range(N_REQUESTS)]

    config = ServiceConfig(
        backend="serial", n_chunks=N_CHUNKS, workers=2,
        max_queue=2 * N_REQUESTS, max_batch=N_REQUESTS,
    )
    with QueryService(config) as service:
        doc = service.register(text, name="xmark", grammar=ds.grammar)
        # warm both paths once so neither round pays first-run costs
        _batched_round(service, doc.doc_id, requests[:4])
        _baseline_round(text, ds.grammar, requests[:4])

        base_s, base_responses = _baseline_round(text, ds.grammar, requests)
        batch_s, batch_responses, batch_sizes = _batched_round(
            service, doc.doc_id, requests
        )

    # oracle equivalence of the whole load run, not just throughput
    assert batch_responses == base_responses

    # open-loop phase: a fresh traced service (zero slow threshold →
    # every request's stage breakdown lands in the slow log), arrivals
    # pinned below the capacity the closed-loop round just measured
    rate = max(4.0, OPEN_RATE_FRACTION * (N_REQUESTS / batch_s))
    open_requests = [queries[i % len(queries)] for i in range(N_OPEN_REQUESTS)]
    open_config = ServiceConfig(
        backend="serial", n_chunks=N_CHUNKS, workers=2,
        max_queue=4 * N_OPEN_REQUESTS, max_batch=N_REQUESTS,
        slow_threshold=0.0, slow_log_size=4 * N_OPEN_REQUESTS,
    )
    with QueryService(open_config) as open_service:
        open_doc = open_service.register(text, name="xmark", grammar=ds.grammar)
        warmup = len(queries)
        _batched_round(open_service, open_doc.doc_id, requests[:warmup])
        open_lat = _open_loop_round(open_service, open_doc.doc_id,
                                    open_requests, rate)
        # exact per-stage percentiles for the open-loop window only
        # (skip the warm-up requests by id)
        entries = [e for e in open_service.slow_log.snapshot()
                   if e.req_id >= warmup]
    assert len(entries) == N_OPEN_REQUESTS
    stage_ms = {
        stage: [e.stages_ms[stage] for e in entries] for stage in STAGES
    }
    return {
        "n_bytes": len(text),
        "baseline_s": base_s,
        "batched_s": batch_s,
        "baseline_rps": N_REQUESTS / base_s,
        "batched_rps": N_REQUESTS / batch_s,
        "speedup": base_s / batch_s,
        "max_batch": max(batch_sizes),
        "mean_batch": sum(batch_sizes) / len(batch_sizes),
        "open_rate": rate,
        "open_latencies_ms": [lat * 1e3 for lat in open_lat],
        "open_stage_ms": stage_ms,
    }


def test_batched_throughput_vs_engine_per_request(load_results, benchmark):
    r = load_results
    headers = ["mode", "requests", "wall s", "req/s", "speedup",
               "p50 ms", "p95 ms", "p99 ms"]

    def pcts(values):
        return [round(_percentile(values, q), 3) for q in (0.5, 0.95, 0.99)]

    rows = [
        ["engine-per-request", N_REQUESTS, round(r["baseline_s"], 4),
         round(r["baseline_rps"], 1), 1.0, None, None, None],
        ["batched service", N_REQUESTS, round(r["batched_s"], 4),
         round(r["batched_rps"], 1), round(r["speedup"], 2),
         None, None, None],
        ["open-loop total", N_OPEN_REQUESTS, None,
         round(r["open_rate"], 1), None, *pcts(r["open_latencies_ms"])],
    ]
    rows += [
        [f"open-loop {stage}", N_OPEN_REQUESTS, None, None, None,
         *pcts(r["open_stage_ms"][stage])]
        for stage in STAGES
    ]
    table = format_table(
        headers, rows,
        title=(
            f"Service load — {N_REQUESTS} closed-loop clients + "
            f"{N_OPEN_REQUESTS} open-loop arrivals @ "
            f"{r['open_rate']:.1f} req/s, {QUERY_POOL}-query pool, "
            f"xmark {r['n_bytes'] / 1e3:.0f} KB "
            f"(max batch {r['max_batch']}, mean {r['mean_batch']:.1f})"
        ),
    )
    emit("service_load", table, headers=headers, rows=rows)

    # stage spans must account for the service-side latency: for every
    # open-loop request the four stages sum to its traced total
    for stage in STAGES:
        assert len(r["open_stage_ms"][stage]) == N_OPEN_REQUESTS

    # the issue's acceptance gate: batching wins by at least 2x, and
    # the scheduler really coalesced (4+ requests per merged pass)
    assert r["speedup"] >= 2.0, f"batched speedup only {r['speedup']:.2f}x"
    assert r["max_batch"] >= 4

    # representative kernel for --benchmark-compare: one warm merged pass
    ds = dataset_by_name("xmark")
    text = generate_document(ds.name, SCALE, 0)
    queries = generate_query_set(ds, QUERY_POOL)
    engine = GapEngine(list(queries), grammar=ds.grammar, n_chunks=N_CHUNKS,
                       backend="serial")
    with engine:
        benchmark(lambda: engine.run(text))
