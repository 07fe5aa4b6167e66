"""The query service core — registry + batching + warm engines + obs.

:class:`QueryService` is the long-running object behind ``repro
serve`` (and directly embeddable, which is how the tests and the load
driver use it):

* a :class:`~repro.service.registry.DocumentRegistry` holds ingested
  documents with their cached lex/split/grammar preparation;
* a :class:`~repro.service.batching.BatchScheduler` admits requests
  into a bounded queue and coalesces same-document requests into one
  merged-automaton pass;
* a bounded LRU of **warm engines** keyed on ``(document, merged query
  set)`` keeps the compiled automaton, feasible table and dense
  kernel tables hot across batches.  Engines receive the service's
  single backend *instance* — the service constructs it by name, owns
  it, and closes it exactly once on shutdown, so no request can leak
  a pool (engines given an instance never close it; see
  ``_EngineBase.close``);
* a :class:`~repro.obs.metrics.MetricsRegistry` (the ``/metrics``
  payload) and a bounded :class:`~repro.obs.journal.Journal` recording
  the request lifecycle (``admit`` / ``reject`` / ``expire`` /
  ``batch`` / ``respond`` events).

Batched execution is oracle-equivalent: a request's ``matches`` are
exactly what an independent engine over just its queries returns,
because the merged automaton tracks each query's sub-automata
independently and responses are demultiplexed by query string.  The
property test in ``tests/test_service.py`` pins this.

Deadlines: an admitted request carries an absolute deadline (defaulted
from config).  Expired requests are failed at dispatch without costing
an execution.  *During* an execution, a hung or crashed chunk is
bounded by the engine's resilience supervision
(:class:`~repro.parallel.resilience.RetryPolicy`) when
``chunk_timeout``/``max_retries`` are configured — the same recovery
ladder the CLI flags engage.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.engine import GapEngine
from ..obs.alerts import AlertManager, parse_alert_rules
from ..obs.journal import Journal
from ..obs.metrics import LAYER_SECONDS_HELP, MetricsRegistry
from ..obs.layers import REQUEST_LAYERS, stage_key
from ..obs.sampler import SampleProfile, StackSampler
from ..obs.slowlog import SlowEntry, SlowLog
from ..obs.timeseries import Collector, TimeSeriesStore
from ..obs.tracer import Tracer
from ..parallel.backend import get_backend
from ..parallel.resilience import RetryPolicy
from .batching import (
    BatchScheduler,
    DeadlineExceeded,
    QueueFull,
    Request,
    ServiceClosed,
)
from .registry import DocumentRegistry, DocumentRecord, UnknownDocument

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Future

__all__ = ["ServiceConfig", "QueryService"]

_clock = time.monotonic

#: batch-size histogram buckets (requests per merged pass)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: the p-levels every latency surface reports
_QUANTILES = (0.5, 0.95, 0.99)


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Every service knob in one picklable record (CLI flags map 1:1).

    ``backend`` is a backend *name* — the service constructs and owns
    the instance.  ``workers`` threads pull requests from the bounded
    queue (``max_queue``); a worker runs a request as soon as it is
    free and merges into the same pass up to ``max_batch`` requests
    that are already waiting; nothing waits for companions.
    ``default_deadline`` applies to requests that do not carry their
    own (``None`` = no deadline).
    ``chunk_timeout``/``max_retries`` configure the engines' resilience
    supervision (both ``None`` = unsupervised).
    """

    backend: str = "thread"
    n_chunks: int = 8
    #: structural-repetition memoization in the kernel, opt-in
    memo: bool = False
    max_queue: int = 64
    max_batch: int = 16
    workers: int = 4
    max_documents: int = 64
    default_deadline: float | None = 30.0
    chunk_timeout: float | None = None
    max_retries: int | None = None
    engine_cache_size: int = 32
    pre_lex: bool = True
    journal_limit: int = 65536
    #: per-request stage tracing (off = NullRequestTrace fast path;
    #: the CI overhead gate pins the instrumented/disabled delta)
    request_tracing: bool = True
    #: end-to-end latency (seconds) beyond which a request's full span
    #: breakdown is captured in the slow-request log
    slow_threshold: float = 0.5
    #: slow-log ring capacity (old entries fall off the back)
    slow_log_size: int = 128
    #: directory for the persistent artifact store (``None`` = off):
    #: compiled tables write through, document splits/token caches are
    #: cache-aside, so a restarted service warm-starts from disk
    artifact_store: str | None = None
    #: telemetry collector: background thread snapshotting metrics +
    #: scheduler into the time-series store every ``collect_interval``
    #: seconds; ``collector=False`` disables the thread (the store and
    #: alert engine stay constructed, drivable by hand in tests)
    collector: bool = True
    collect_interval: float = 2.0
    #: points kept per telemetry series (history window = this × interval)
    history: int = 600
    #: SLO/alert rule spec strings (see :mod:`repro.obs.alerts`; the
    #: literal ``"default"`` expands the built-in pack)
    alert_rules: tuple[str, ...] = ()
    #: continuous stack-sampling profiler (``/profilez``): an in-process
    #: sampler thread at ``sample_hz``; with the process backend the
    #: engines additionally sample their pool workers per chunk
    sample: bool = False
    sample_hz: float = 50.0
    #: streaming subsystem: sealed-chunk target size for continuous
    #: queries, per-stream delta ring capacity (slow subscribers past
    #: this window get a counted gap), and the open-stream cap
    stream_chunk_bytes: int = 1 << 16
    stream_delta_buffer: int = 256
    max_streams: int = 16

    def resilience(self) -> RetryPolicy | None:
        if self.chunk_timeout is None and self.max_retries is None:
            return None
        return RetryPolicy(
            max_retries=2 if self.max_retries is None else self.max_retries,
            chunk_timeout=5.0 if self.chunk_timeout is None else self.chunk_timeout,
        )


class QueryService:
    """Long-running query service: ingest documents, serve batched queries."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.journal = Journal(limit=self.config.journal_limit)
        self._obs_lock = threading.Lock()
        # the persistent artifact tier: one store instance shared by
        # the registry (cache-aside) and — via the process-global hook
        # in compile_tables — every engine compilation (write-through)
        self.store = None
        self._installed_store = False
        if self.config.artifact_store is not None:
            from ..store import ArtifactStore
            from ..xpath.compile_tables import set_artifact_store

            self.store = ArtifactStore(
                self.config.artifact_store,
                metrics=self.metrics,
                journal=self.journal,
                obs_lock=self._obs_lock,
            )
            set_artifact_store(self.store)
            self._installed_store = True
        self.registry = DocumentRegistry(
            max_documents=self.config.max_documents,
            pre_lex=self.config.pre_lex,
            store=self.store,
        )
        self._backend = get_backend(self.config.backend)
        self._resilience = self.config.resilience()
        self._engines: OrderedDict[tuple, GapEngine] = OrderedDict()
        self._engine_lock = threading.Lock()
        self._scheduler = BatchScheduler(
            self._execute_group,
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
            workers=self.config.workers,
            trace_requests=self.config.request_tracing,
        )
        self.slow_log = SlowLog(
            threshold=self.config.slow_threshold,
            capacity=self.config.slow_log_size,
        )
        self._batch_seq = itertools.count()
        # the SLO surface's histograms, created up-front so varz() and
        # /statusz can read them without get-or-create races
        self._h_batch_size = self.metrics.histogram(
            "repro_service_batch_size", "Requests answered per merged pass",
            buckets=_BATCH_BUCKETS,
        )
        self._h_batch_seconds = self.metrics.histogram(
            "repro_service_batch_seconds",
            "Wall-clock duration of one merged pass",
        )
        self._h_request_seconds = self.metrics.histogram(
            "repro_service_request_seconds",
            "Request latency from admission to response",
        )
        # one histogram per request layer, keyed like the trace's stages
        self._stage_hists = {
            stage_key(layer): self.metrics.histogram(
                "repro_layer_seconds", LAYER_SECONDS_HELP, layer=layer)
            for layer in REQUEST_LAYERS
        }
        # continuous-observability plane: telemetry history + alerts +
        # the sampling profiler.  History persists under the artifact
        # store root (best-effort) so it survives restarts.
        persist = None
        if self.config.artifact_store is not None:
            persist = os.path.join(self.config.artifact_store,
                                   "telemetry", "history.jsonl")
        self.telemetry = TimeSeriesStore(
            capacity=self.config.history, persist_path=persist,
        )
        self.alerts = AlertManager(parse_alert_rules(self.config.alert_rules))
        self._g_alerts_firing = self.metrics.gauge(
            "repro_alerts_firing", "Alert rules currently in the firing state"
        )
        self._collector: Collector | None = None
        if self.config.collector:
            self._collector = Collector(
                self._collect_samples, self.telemetry,
                interval=self.config.collect_interval,
                listeners=(self._alert_listener,),
            )
        # one shared profile: the continuous in-process sampler and (on
        # the process backend, whose pool workers an in-process sampler
        # cannot see) every warm engine's per-chunk samplers feed it
        self.profile: SampleProfile | None = None
        self._sampler: StackSampler | None = None
        self._engine_sample = 0.0
        if self.config.sample:
            self.profile = SampleProfile()
            self._sampler = StackSampler(profile=self.profile,
                                         interval=1.0 / self.config.sample_hz)
            if self.config.backend == "process":
                self._engine_sample = self.config.sample_hz
        # continuous queries over unbounded input: the stream registry
        # shares the service's store (checkpoints), metrics and journal
        from ..stream import StreamManager

        self.streams = StreamManager(
            store=self.store,
            metrics=self.metrics,
            journal=self.journal,
            obs_lock=self._obs_lock,
            chunk_bytes=self.config.stream_chunk_bytes,
            delta_buffer=self.config.stream_delta_buffer,
            max_streams=self.config.max_streams,
            memo=self.config.memo,
        )
        self._closed = False
        # monotonic anchor for uptime (NTP-step safe); the wall-clock
        # start instant is kept separately for display
        self._started_mono = _clock()
        self.started_at_unix = time.time()
        self.started_at = self.started_at_unix

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "QueryService":
        self._scheduler.start()
        if self._collector is not None:
            self._collector.start()
        if self._sampler is not None:
            self._sampler.start()
        return self

    def close(self) -> None:
        """Graceful shutdown: drain, fail leftovers, release all pools."""
        if self._closed:
            return
        self._closed = True
        # streams first: checkpoint live tails while the store is still
        # installed, and wake every blocked delta reader
        self.streams.close()
        if self._collector is not None:
            self._collector.stop()
        if self._sampler is not None:
            self._sampler.stop()
        self._scheduler.close()
        with self._engine_lock:
            self._engines.clear()
        # engines hold the backend *instance* and therefore never close
        # it; the service created it by name and closes it exactly once
        self._backend.close()
        if self._installed_store:
            # uninstall the process-global compile-cache hook so a
            # later service (tests construct many) cannot write into a
            # closed service's store directory
            from ..xpath.compile_tables import get_artifact_store, set_artifact_store

            if get_artifact_store() is self.store:
                set_artifact_store(None)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- ingestion -----------------------------------------------------

    def register(
        self,
        text: str,
        name: str = "",
        grammar: str | None = None,
        n_chunks: int | None = None,
    ) -> DocumentRecord:
        record = self.registry.register(
            text, name=name, grammar=grammar,
            n_chunks=n_chunks or self.config.n_chunks,
        )
        with self._obs_lock:
            if self.journal.enabled:
                self.journal.record("ingest", doc=record.doc_id,
                                    bytes=record.n_bytes, doc_kind=record.kind)
        return record

    # -- querying ------------------------------------------------------

    def submit(
        self,
        doc_id: str,
        queries: list[str] | tuple[str, ...],
        deadline: float | None = None,
    ) -> "Future":
        """Admit one request; returns the future its response lands on.

        Raises :class:`UnknownDocument` for an unregistered id and
        :class:`QueueFull` when admission is refused.  ``deadline`` is
        seconds from now (falling back to the configured default).
        """
        if not queries:
            raise ValueError("a request needs at least one query")
        self.registry.get(doc_id)  # fail fast on unknown documents
        seconds = self.config.default_deadline if deadline is None else deadline
        abs_deadline = None if seconds is None else _clock() + seconds
        try:
            req = self._scheduler.submit(doc_id, tuple(queries), abs_deadline)
        except (QueueFull, ServiceClosed):
            with self._obs_lock:
                self._count_request("rejected")
                if self.journal.enabled:
                    self.journal.record("reject", doc=doc_id,
                                        queue=self._scheduler.depth())
            raise
        with self._obs_lock:
            if self.journal.enabled:
                self.journal.record("admit", doc=doc_id, request=req.req_id,
                                    queries=len(req.queries))
        return req.future

    def query(
        self,
        doc_id: str,
        queries: list[str] | tuple[str, ...],
        deadline: float | None = None,
    ) -> dict:
        """Blocking submit: returns the response dict or raises the error."""
        future = self.submit(doc_id, queries, deadline=deadline)
        seconds = self.config.default_deadline if deadline is None else deadline
        # leave headroom over the service-side deadline so the service,
        # not the wait, is what times a request out
        wait = None if seconds is None else seconds + 5.0
        return future.result(timeout=wait)

    # -- batch execution (scheduler worker threads) --------------------

    def _execute_group(self, doc_id: str, group: list[Request]) -> None:
        now = _clock()
        live: list[Request] = []
        for req in group:
            if req.expired(now):
                req.trace.mark("responded", now)
                with self._obs_lock:
                    self._count_request("expired")
                    if self.journal.enabled:
                        self.journal.record("expire", doc=doc_id,
                                            request=req.req_id)
                req.future.set_exception(DeadlineExceeded(
                    f"request {req.req_id} expired before execution"
                ))
            else:
                live.append(req)
        if not live:
            return
        try:
            doc = self.registry.get(doc_id)
        except UnknownDocument as exc:
            for req in live:
                req.future.set_exception(exc)
            with self._obs_lock:
                self._count_request("not_found", len(live))
            return

        merged = tuple(sorted({q for req in live for q in req.queries}))
        batch_seq = next(self._batch_seq)
        tracing = self.config.request_tracing
        # each batch gets its own engine tracer so concurrent batches on
        # one warm engine never share span lists (per-run override; see
        # GapEngine.run) — its chunk spans are stitched under the batch
        batch_tracer = Tracer() if tracing else None
        t0 = _clock()
        if tracing:
            for req in live:
                req.trace.mark("exec_start", t0)
                req.trace.batch_seq = batch_seq
        try:
            engine = self._engine_for(doc, merged)
            engine_s = _clock() - t0
            result = self._run(engine, doc, batch_tracer)
        except Exception as exc:
            for req in live:
                if not req.future.done():
                    req.future.set_exception(exc)
            with self._obs_lock:
                self._count_request("error", len(live))
                if self.journal.enabled:
                    self.journal.record("batch", doc=doc_id, size=len(live),
                                        batch_seq=batch_seq, error=str(exc))
            return
        exec_end = _clock()
        exec_s = exec_end - t0

        chunk_rows: list[list[object]] = []
        if batch_tracer is not None:
            chunk_spans = batch_tracer.chunk_spans()
            if chunk_spans:
                base = min(s.t0 for s in chunk_spans)
                chunk_rows = [
                    [s.args["chunk"], round((s.t0 - base) * 1e3, 3),
                     round((s.t1 - s.t0) * 1e3, 3)]
                    for s in sorted(chunk_spans, key=lambda s: s.args["chunk"])
                ]

        matches = result.matches
        stats = result.stats.summary()
        batch_info = {
            "seq": batch_seq,
            "size": len(live),
            "merged_queries": len(merged),
            "exec_seconds": exec_s,
            # the warm-engine lookup (plus the build on a miss) inside exec
            "engine_seconds": engine_s,
        }
        responded = _clock()
        responses: list[dict] = []
        for req in live:
            if tracing:
                req.trace.mark("exec_end", exec_end)
                req.trace.chunk_spans = chunk_rows
            responses.append({
                "request_id": req.req_id,
                "doc_id": doc_id,
                "matches": {q: list(matches.get(q, [])) for q in req.queries},
                "counts": {q: len(matches.get(q, [])) for q in req.queries},
                "batch": dict(batch_info),
                "stats": stats,
            })
            req.trace.mark("responded")
        with self._obs_lock:
            self._count_request("ok", len(live))
            self.metrics.counter(
                "repro_service_batches_total", "Merged-automaton passes executed"
            ).inc()
            self._h_batch_size.observe(len(live))
            self._h_batch_seconds.observe(exec_s)
            for req in live:
                self._h_request_seconds.observe(max(0.0, responded - req.enqueued))
            if tracing:
                for req in live:
                    for stage, secs in req.trace.stage_seconds().items():
                        self._stage_hists[stage].observe(secs)
            if self.journal.enabled:
                self.journal.record(
                    "batch", doc=doc_id, size=len(live), batch_seq=batch_seq,
                    merged_queries=len(merged), exec_seconds=round(exec_s, 6),
                    engine_seconds=round(engine_s, 6),
                    requests=[req.req_id for req in live],
                )
                for req in live:
                    self.journal.record(
                        "respond", doc=doc_id, request=req.req_id,
                        batch_seq=batch_seq,
                        matches=sum(len(matches.get(q, ())) for q in req.queries),
                    )
                if tracing:
                    for req in live:
                        # to_dict carries batch_seq + the chunk spans
                        self.journal.record(
                            "trace", doc=doc_id, request=req.req_id,
                            **req.trace.to_dict(),
                        )
        if tracing:
            for req in live:
                trace = req.trace
                self._consider_slow(doc_id, req, trace, batch_seq,
                                    len(live), chunk_rows)
        # futures resolve last: once a client wakes it immediately
        # competes for the interpreter, so finishing the bookkeeping
        # first keeps the observability work off that contended window
        for req, response in zip(live, responses):
            req.future.set_result(response)

    def _consider_slow(self, doc_id, req, trace, batch_seq, batch_size,
                       chunk_rows) -> None:
        self.slow_log.consider(
            trace.total,
            lambda seq, wall_ts: SlowEntry(
                seq=seq,
                req_id=req.req_id,
                doc_id=doc_id,
                queries=req.queries,
                total_ms=trace.total * 1e3,
                stages_ms={
                    k: v * 1e3 for k, v in trace.stage_seconds().items()
                },
                deadline_fraction=trace.deadline_fraction(req.deadline),
                batch_seq=batch_seq,
                batch_size=batch_size,
                chunk_spans=chunk_rows,
                wall_ts=wall_ts,
            ),
        )

    def _run(self, engine: GapEngine, doc: DocumentRecord, tracer=None):
        if doc.kind == "json":
            return engine.run_tokens(doc.tokens, tracer=tracer)
        return engine.run(doc.text, chunks=doc.chunks,
                          chunk_tokens=doc.chunk_tokens, tracer=tracer)

    def _engine_for(self, doc: DocumentRecord, merged: tuple[str, ...]) -> GapEngine:
        key = (doc.doc_id, merged)
        with self._engine_lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                self._count_engine_cache("hit")
                return engine
        built = GapEngine(
            list(merged),
            grammar=doc.grammar,
            n_chunks=doc.n_chunks,
            backend=self._backend,  # shared instance: service-owned
            memo=self.config.memo,
            resilience=self._resilience,
            sample=self._engine_sample,
            profile=self.profile if self._engine_sample > 0 else None,
        )
        with self._engine_lock:
            engine = self._engines.get(key)
            if engine is not None:  # racing build: keep the first
                self._engines.move_to_end(key)
                self._count_engine_cache("hit")
                return engine
            self._engines[key] = built
            while len(self._engines) > self.config.engine_cache_size:
                self._engines.popitem(last=False)
            self._count_engine_cache("miss")
        return built

    # -- observability -------------------------------------------------

    def _collect_samples(self) -> tuple[dict[str, float], dict[str, str]]:
        """The collector's source: one ``(values, kinds)`` snapshot.

        Counters keep their cumulative values (the store derives rates
        with reset detection); gauges are instantaneous levels.  The
        scheduler pair comes from ONE snapshot call — same consistency
        argument as :meth:`metrics_text`.
        """
        sched = self._scheduler.snapshot()
        values: dict[str, float] = {
            "queue_depth": sched["queue_depth"],
            "in_flight": sched["in_flight"],
            "queue_fraction": sched["queue_depth"] / max(1, self.config.max_queue),
            "documents": len(self.registry),
        }
        kinds: dict[str, str] = {}
        for name, (value, kind) in self.streams.series().items():
            values[name] = value
            kinds[name] = kind
        with self._engine_lock:
            values["engines"] = len(self._engines)
        with self._obs_lock:
            for metric in self.metrics:
                if metric.name == "repro_service_requests_total":
                    name = f"requests_{metric.labels.get('status', '')}"
                    values[name] = metric.value
                    kinds[name] = "counter"
                elif metric.name == "repro_service_batches_total":
                    values["batches_total"] = metric.value
                    kinds["batches_total"] = "counter"
            summary = self._h_request_seconds.summary(_QUANTILES)
            values["request_count"] = summary["count"]
            kinds["request_count"] = "counter"
            for level in ("p50", "p95", "p99"):
                p = summary.get(level)
                if p is not None:
                    values[f"request_{level}_ms"] = p * 1e3
        return values, kinds

    def _alert_listener(self, store, now: float, wall_ts: float) -> None:
        """Post-tick hook: evaluate rules, journal transitions, set gauge."""
        transitions = self.alerts.evaluate(store, now, wall_ts=wall_ts)
        firing = len(self.alerts.firing())
        with self._obs_lock:
            self._g_alerts_firing.set(firing)
            if self.journal.enabled:
                for tr in transitions:
                    self.journal.record(
                        "alert", rule=tr["rule"], state=tr["state"],
                        series=tr["series"], value=tr["value"],
                        threshold=tr["threshold"],
                    )

    def profile_capture(self, seconds: float | None = None) -> dict[str, int]:
        """A collapsed-stack profile for ``/profilez``.

        ``seconds`` runs a fresh on-demand capture for that long
        (clamped to 30 s; one immediate sample is always taken, so
        ``seconds=0`` still returns the current stacks).  ``None``
        returns the continuous profile and requires ``--sample``.
        """
        if seconds is None:
            if self.profile is None:
                raise ValueError(
                    "continuous profiling is off (start with --sample) — "
                    "pass seconds=N for an on-demand capture"
                )
            return self.profile.to_dict()
        seconds = min(max(float(seconds), 0.0), 30.0)
        sampler = StackSampler(interval=1.0 / self.config.sample_hz)
        sampler.sample_once()
        if seconds > 0:
            sampler.start()
            time.sleep(seconds)
            sampler.stop()
        return sampler.profile.to_dict()

    def _count_request(self, status: str, amount: int = 1) -> None:
        self.metrics.counter(
            "repro_service_requests_total", "Requests by final status",
            status=status,
        ).inc(amount)

    def _count_engine_cache(self, event: str) -> None:
        # lock order is always _engine_lock -> _obs_lock (metrics_text
        # reads the engine count before taking _obs_lock, never inside)
        with self._obs_lock:
            self.metrics.counter(
                "repro_service_engine_cache_total", "Warm-engine cache lookups",
                event=event,
            ).inc()

    def metrics_text(self) -> str:
        """The ``/metrics`` payload: refresh gauges, render Prometheus text.

        Scheduler state comes from ONE :meth:`BatchScheduler.snapshot`
        call, so the exported queue-depth/in-flight pair is consistent —
        two separate reads could observe a request counted in both (or
        neither) while a batch moves from the queue into execution.
        """
        sched = self._scheduler.snapshot()
        with self._engine_lock:
            n_engines = len(self._engines)
        from ..xpath.compile_tables import compile_cache_info

        cache = compile_cache_info()
        with self._obs_lock:
            self.metrics.gauge(
                "repro_service_queue_depth", "Requests waiting for dispatch"
            ).set(sched["queue_depth"])
            self.metrics.gauge(
                "repro_service_in_flight", "Requests currently executing"
            ).set(sched["in_flight"])
            self.metrics.gauge(
                "repro_service_documents", "Documents currently registered"
            ).set(len(self.registry))
            self.metrics.gauge(
                "repro_service_engines", "Warm engines currently cached"
            ).set(n_engines)
            self.metrics.gauge(
                "repro_service_uptime_seconds", "Seconds since service start"
            ).set(_clock() - self._started_mono)
            self.metrics.gauge(
                "repro_service_compile_cache_hits",
                "Dense-table compile cache hits (process-wide)",
            ).set(cache["hits"])
            self.metrics.gauge(
                "repro_service_compile_cache_misses",
                "Dense-table compile cache misses (process-wide)",
            ).set(cache["misses"])
            memo = cache["memo"]
            self.metrics.gauge(
                "repro_service_memo_hits",
                "Structural memo replays in the kernel (process-wide)",
            ).set(memo["hits"])
            self.metrics.gauge(
                "repro_service_memo_misses",
                "Structural memo lookups that recorded (process-wide)",
            ).set(memo["misses"])
            self.metrics.gauge(
                "repro_service_memo_entries",
                "Live memo entries across registered tables (process-wide)",
            ).set(memo["entries"])
            self.metrics.gauge(
                "repro_service_slow_requests", "Slow-log entries currently buffered"
            ).set(len(self.slow_log))
            return self.metrics.to_prometheus()

    def journal_jsonl(self, n: int | None = None, since: int | None = None) -> str:
        """The request-lifecycle journal as JSONL (bounded; see config).

        ``since`` keeps only events with ``seq > since`` (the polling
        cursor); ``n`` keeps the newest ``n`` of what remains.
        """
        with self._obs_lock:
            events = list(self.journal.events)
        if since is not None:
            events = [ev for ev in events if ev.seq > since]
        if n is not None and n >= 0:
            events = events[-n:] if n else []
        import json

        lines = [
            json.dumps(ev.to_dict(), separators=(",", ":"), sort_keys=True)
            for ev in events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def varz(self, slow_n: int | None = None, slow_since: int | None = None,
             history: int = 0) -> dict:
        """One JSON snapshot of the whole operator surface (``/varz``).

        Everything ``/statusz`` renders comes from this dict, so the
        two surfaces can never disagree; ``repro top`` polls it and
        derives rates from successive snapshots.  ``history`` bounds
        the points per telemetry series in the ``telemetry`` section
        (0 keeps only its tick/reset meta — ``repro top`` asks for
        ranges via ``/varz?history=N``).  ``latency.stages`` is keyed
        by each request layer's last name part (``queue_wait``, …);
        ``perfbench/run.py`` reads those keys.
        """
        sched = self._scheduler.snapshot()
        streams = self.streams.stats()
        with self._engine_lock:
            n_engines = len(self._engines)
        from ..xpath.compile_tables import compile_cache_info

        cache = compile_cache_info()
        memo = cache.pop("memo")
        requests: dict[str, float] = {}
        engine_cache: dict[str, float] = {}
        batches_total = 0.0
        with self._obs_lock:
            for metric in self.metrics:
                if metric.name == "repro_service_requests_total":
                    requests[metric.labels.get("status", "")] = metric.value
                elif metric.name == "repro_service_engine_cache_total":
                    engine_cache[metric.labels.get("event", "")] = metric.value
                elif metric.name == "repro_service_batches_total":
                    batches_total = metric.value
            latency = {
                "request_seconds": self._h_request_seconds.summary(_QUANTILES),
                "batch_seconds": self._h_batch_seconds.summary(_QUANTILES),
                "stages": {
                    stage: hist.summary(_QUANTILES)
                    for stage, hist in self._stage_hists.items()
                },
            }
            batch_size = self._h_batch_size.summary(_QUANTILES)
            journal_len = len(self.journal)
            journal_dropped = self.journal.dropped
        if history > 0:
            telemetry = self.telemetry.to_dict(max_points=history)
        else:
            telemetry = {"ticks": self.telemetry.ticks,
                         "resets": self.telemetry.resets, "series": {}}
        telemetry["collector"] = {
            "enabled": self._collector is not None,
            "interval": self.config.collect_interval,
            "ticks": self._collector.ticks if self._collector else 0,
            "errors": self._collector.errors if self._collector else 0,
        }
        return {
            "uptime_seconds": round(_clock() - self._started_mono, 3),
            "started_at_unix": round(self.started_at_unix, 3),
            "queue_depth": sched["queue_depth"],
            "in_flight": sched["in_flight"],
            "documents": len(self.registry),
            "engines": n_engines,
            "requests": requests,
            "batches_total": batches_total,
            "batch_size": batch_size,
            "engine_cache": engine_cache,
            "compile_cache": dict(cache),
            "memo": dict(memo),
            "store": self.store.counters() if self.store is not None else None,
            "streams": streams,
            "latency": latency,
            "slow_log": {
                "threshold_seconds": self.slow_log.threshold,
                "recorded": self.slow_log.recorded,
                "evicted": self.slow_log.evicted,
                "entries": self.slow_log.to_dicts(n=slow_n, since=slow_since),
            },
            "journal": {"events": journal_len, "dropped": journal_dropped},
            "alerts": self.alerts.to_dict() if len(self.alerts) else None,
            "telemetry": telemetry,
            "config": {
                "backend": self.config.backend,
                "max_queue": self.config.max_queue,
                "max_batch": self.config.max_batch,
                "workers": self.config.workers,
                "request_tracing": self.config.request_tracing,
            },
        }

    def statusz_html(self) -> str:
        """The ``/statusz`` operator dashboard (rendered from :meth:`varz`)."""
        from ..obs.report import VIEW_HISTORY, render_statusz

        return render_statusz(self.varz(history=VIEW_HISTORY))
