"""Metrics registry — counters, gauges and histograms with exporters.

A deliberately small, dependency-free subset of the Prometheus client
data model:

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — a value that can go up and down;
* :class:`Histogram` — cumulative-bucket distribution with ``_sum``
  and ``_count``.

Metrics live in a :class:`MetricsRegistry`, keyed by
``(name, sorted labels)``; ``registry.counter(name, help, **labels)``
is get-or-create, so instrumentation sites never need to check
registration.  Two exporters:

* :meth:`MetricsRegistry.to_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` headers, escaped label values, histogram
  ``le`` buckets ending in ``+Inf``);
* :meth:`MetricsRegistry.to_json` — a flat JSON-friendly list of
  samples for the benchmark trajectory files.

:func:`collect_run_metrics` maps a run's
:class:`~repro.core.stats.RunStats` (and optionally its spans and
matches) onto the ``repro_*`` metric names documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections.abc import Sequence

from .layers import layer_seconds

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "collect_run_metrics",
    "table_registry",
]

#: default histogram buckets (seconds), tuned for chunk-scale latencies
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)

#: help text of the one per-layer time family (runs and requests)
LAYER_SECONDS_HELP = "Exclusive wall-clock time per layer (repro.obs.LAYERS)"

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(v: float) -> str:
    """Integers render as integers, floats with full ``repr`` precision."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class _Metric:
    """Shared identity (name, help, labels) of one registered metric."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: dict[str, str]) -> None:
        self.name = name
        self.help = help
        self.labels = labels

    def label_suffix(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(
            f'{k}="{_escape_label(str(v))}"' for k, v in sorted(self.labels.items())
        )
        return "{" + inner + "}"

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        """``(sample name, labels, value)`` rows for the exporters."""
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: dict[str, str]) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        return [(self.name, self.labels, self.value)]


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: dict[str, str]) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        return [(self.name, self.labels, self.value)]


class Histogram(_Metric):
    """Cumulative-bucket distribution (Prometheus ``le`` semantics).

    ``observe`` is thread-safe: service instrumentation records from
    scheduler workers and HTTP handler threads concurrently, and a
    torn ``sum``/``count``/bucket triple would corrupt every quantile
    derived from it.  The lock is uncontended in the common case (one
    short critical section per observation).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: dict[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._bucket_counts = [0] * len(self.buckets)
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        i = bisect_left(self.buckets, value)
        with self._lock:
            self.sum += value
            self.count += 1
            if i < len(self._bucket_counts):
                self._bucket_counts[i] += 1

    def cumulative_counts(self) -> list[int]:
        """Per-bucket cumulative counts (the exported ``le`` values)."""
        out: list[int] = []
        running = 0
        with self._lock:
            counts = list(self._bucket_counts)
        for c in counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float | None:
        """Bucket-interpolated quantile estimate (``0 <= q <= 1``).

        The classic Prometheus ``histogram_quantile`` estimator:
        find the first bucket whose cumulative count reaches
        ``q * count`` and interpolate linearly inside it (the lower
        edge of the first bucket is 0).  Observations above the last
        finite bound clamp to that bound.  Returns ``None`` while the
        histogram is empty.

        The estimate is exact whenever the underlying values sit
        uniformly inside their buckets (the estimator's model); the
        unit tests pin it against hand-computed interpolations on
        synthetic bucket fills.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self.count
            counts = list(self._bucket_counts)
        if total == 0:
            return None
        rank = q * total
        running = 0.0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            prev = running
            running += c
            if running >= rank:
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                if rank <= prev:  # quantile falls on the bucket edge
                    return lo if i > 0 else hi
                return lo + (hi - lo) * (rank - prev) / c
        # the remaining mass is above the last finite bound: clamp
        return self.buckets[-1]

    def quantiles(self, qs: Sequence[float] = (0.5, 0.95, 0.99)) -> dict[str, float | None]:
        """Several quantiles at once, keyed ``p50``-style for exports."""
        return {f"p{q * 100:g}": self.quantile(q) for q in qs}

    def summary(self, qs: Sequence[float] = (0.5, 0.95, 0.99)) -> dict:
        """``count``/``sum`` plus the requested quantiles (one JSON row)."""
        with self._lock:
            count, total = self.count, self.sum
        out: dict = {"count": count, "sum": round(total, 6)}
        for key, value in self.quantiles(qs).items():
            out[key] = None if value is None else round(value, 6)
        return out

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        rows: list[tuple[str, dict[str, str], float]] = []
        for bound, cum in zip(self.buckets, self.cumulative_counts()):
            rows.append((f"{self.name}_bucket", {**self.labels, "le": _fmt_value(bound)}, cum))
        rows.append((f"{self.name}_bucket", {**self.labels, "le": "+Inf"}, self.count))
        rows.append((f"{self.name}_sum", self.labels, self.sum))
        rows.append((f"{self.name}_count", self.labels, self.count))
        return rows


class MetricsRegistry:
    """Ordered collection of metrics with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], _Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def _get(self, cls, name: str, help: str, labels: dict[str, str], **kwargs) -> _Metric:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_NAME.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name}")
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help, {k: str(v) for k, v in labels.items()}, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name} already registered as {metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- exporters -----------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in self._metrics.values():
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, labels, value in metric.samples():
                suffix = ""
                if labels:
                    inner = ",".join(
                        f'{k}="{_escape_label(str(v))}"'
                        for k, v in sorted(labels.items())
                    )
                    suffix = "{" + inner + "}"
                lines.append(f"{sample_name}{suffix} {_fmt_value(value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """JSON-friendly dump: one entry per metric, samples inlined."""
        out: list[dict] = []
        for metric in self._metrics.values():
            entry: dict = {
                "name": metric.name,
                "type": metric.kind,
                "help": metric.help,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                entry["sum"] = metric.sum
                entry["count"] = metric.count
                entry["buckets"] = {
                    _fmt_value(b): c
                    for b, c in zip(metric.buckets, metric.cumulative_counts())
                }
            else:
                entry["value"] = metric.value
            out.append(entry)
        return {"metrics": out}


# ---------------------------------------------------------------------------
# builders


def collect_run_metrics(
    stats,
    matches: dict[str, list[int]] | None = None,
    spans: Sequence = (),
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Populate a registry from one run's stats (+ optional spans/matches).

    ``stats`` is a :class:`~repro.core.stats.RunStats` (duck-typed: it
    needs ``counters``, ``chunk_counters`` and the derived properties).
    """
    reg = registry if registry is not None else MetricsRegistry()
    c = stats.counters
    reg.counter("repro_bytes_lexed_total", "Bytes of raw input lexed").inc(c.bytes_lexed)
    reg.counter("repro_tokens_total", "Tokens processed, by execution mode",
                mode="stack").inc(c.stack_tokens)
    reg.counter("repro_tokens_total", "Tokens processed, by execution mode",
                mode="tree").inc(c.tree_tokens)
    reg.counter("repro_tree_path_steps_total",
                "Per-token path-maintenance work in tree mode").inc(c.tree_path_steps)
    reg.counter("repro_switches_total",
                "Runtime data-structure switches (tree <-> stack)").inc(c.switches)
    reg.counter("repro_divergences_total", "Underflow pop divergences").inc(c.divergences)
    reg.counter("repro_paths_eliminated_total",
                "Path groups killed by feasibility checks").inc(c.paths_eliminated)
    reg.counter("repro_paths_converged_total",
                "Path groups merged by convergence").inc(c.paths_converged)
    reg.counter("repro_starting_paths_total",
                "Execution paths chunks started with (summed)").inc(c.starting_paths)
    reg.counter("repro_chunks_total", "Chunks processed").inc(c.chunks)
    reg.counter("repro_degraded_lookups_total",
                "Feasible-table misses degraded to full enumeration").inc(c.degraded_lookups)
    reg.counter("repro_reprocessed_tokens_total",
                "Tokens re-executed sequentially after misspeculation").inc(c.reprocessed_tokens)
    reg.counter("repro_misspeculations_total",
                "Join-time misspeculations detected").inc(c.misspeculations)
    reg.counter("repro_join_steps_total", "Join-phase linking steps").inc(c.join_steps)
    reg.counter("repro_retries_total",
                "Chunk attempts re-scheduled by the resilience layer").inc(c.retries)
    reg.counter("repro_timeouts_total",
                "Chunk attempts that exceeded the chunk timeout").inc(c.timeouts)
    reg.counter("repro_fallbacks_total",
                "Chunks re-executed on the serial fallback").inc(c.fallbacks)
    # process-wide compile-cache counters (lazy import: metrics must not
    # pull the xpath package in at module load)
    from ..xpath.compile_tables import compile_cache_info

    cache = compile_cache_info()
    reg.counter("repro_compile_cache_hits_total",
                "Dense-table compile cache hits (process-wide)").inc(cache["hits"])
    reg.counter("repro_compile_cache_misses_total",
                "Dense-table compile cache misses (process-wide)").inc(cache["misses"])
    memo = cache["memo"]
    reg.counter("repro_memo_hits_total",
                "Structural memo replays in the kernel (process-wide)"
                ).inc(memo["hits"])
    reg.counter("repro_memo_misses_total",
                "Structural memo lookups that recorded a new entry "
                "(process-wide)").inc(memo["misses"])
    reg.counter("repro_memo_rejects_total",
                "Hash-colliding near-repeats rejected by exact comparison "
                "(process-wide)").inc(memo["rejects"])
    reg.counter("repro_memo_evictions_total",
                "Memo entries evicted at capacity (process-wide)"
                ).inc(memo["evictions"])
    reg.gauge("repro_memo_entries",
              "Live memo entries across registered tables (process-wide)"
              ).set(memo["entries"])
    reg.gauge("repro_memo_sequences",
              "Interned structural subsequences (process-wide)"
              ).set(memo["sequences"])
    reg.gauge("repro_mapping_entries", "Mapping entries at chunk completion").set(c.mapping_entries)
    reg.gauge("repro_avg_starting_paths",
              "Average starting execution paths per chunk (Table 5)").set(stats.avg_starting_paths)
    reg.gauge("repro_speculation_accuracy",
              "Fraction of speculated chunks joined without reprocessing (Table 6)"
              ).set(stats.speculation_accuracy)
    reg.gauge("repro_reprocessing_cost",
              "Reprocessed fraction of the token work (Table 6)").set(stats.reprocessing_cost)
    if matches is not None:
        for query, offsets in matches.items():
            reg.counter("repro_matches_total", "Matches found, per query",
                        query=query).inc(len(offsets))
    for span in spans:
        if span.cat == "chunk" and "chunk" in span.args:
            reg.histogram("repro_chunk_seconds",
                          "Wall-clock duration of one chunk's parallel-phase work"
                          ).observe(span.duration)
        elif span.cat == "resilience":
            # recovery spans aggregate per kind, not per chunk — chunk
            # indexes would be unbounded label cardinality
            reg.counter("repro_resilience_seconds_total",
                        "Wall-clock time spent in recovery, by kind",
                        kind=span.args["recovery"]).inc(span.duration)
    if spans:
        for layer, secs in layer_seconds(spans).items():
            reg.histogram("repro_layer_seconds", LAYER_SECONDS_HELP,
                          layer=layer).observe(secs)
    return reg


def table_registry(
    artifact: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Benchmark table → one gauge per numeric cell.

    Each row's first column names the row; every numeric cell becomes
    ``repro_bench_value{artifact=…,row=…,col=…}`` so the perf
    trajectory is queryable without parsing ASCII tables.
    """
    reg = registry if registry is not None else MetricsRegistry()
    cols = list(headers[1:]) if headers else []
    for row in rows:
        row = list(row)
        label = str(row[0]) if row else ""
        for i, cell in enumerate(row[1:]):
            col = str(cols[i]) if i < len(cols) else str(i + 1)
            if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                reg.gauge("repro_bench_value", "Benchmark table cell",
                          artifact=artifact, row=label, col=col).set(float(cell))
    return reg
