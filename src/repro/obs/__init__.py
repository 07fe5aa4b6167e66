"""Observability: tracing spans, metrics, exporters and logging.

The paper's whole argument is quantitative (Tables 5/6, Figures 8-10
are profiles of starting paths, switches and misspeculation cost), so
this package gives every run a measurable shape, and every surface
names its time with one vocabulary:

* :mod:`repro.obs.layers` — the ordered **layer table**
  (:data:`LAYERS`: ``xpath.compile`` … ``service.service.respond``)
  with the module prefixes each layer owns, and exclusive (self) time
  over a span tree;
* :mod:`repro.obs.tracer` — context-manager **spans**, each named by a
  layer, with wall-clock durations and counter snapshots, collected by
  a :class:`Tracer` and disabled at zero cost by the default
  :class:`NullTracer`;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram **registry**
  with Prometheus text exposition and JSON export;
* :mod:`repro.obs.export` — **Chrome-tracing JSON** (loadable in
  ``chrome://tracing`` / Perfetto) and the per-chunk timeline table
  behind ``repro profile``;
* :mod:`repro.obs.journal` — the **flight recorder**: a bounded,
  structured event journal of the path lifecycle (spawn / kill /
  converge / switch), speculation and resilience events, off by
  default via the zero-cost :data:`NULL_JOURNAL`;
* :mod:`repro.obs.report` — **pages** (a title, a meta line, sections
  of tables) and their one text and one HTML renderer: the run report,
  ``repro explain``, the ``/varz`` operator view behind ``/statusz``
  and ``repro top``, and the flame view;
* :mod:`repro.obs.reqtrace` — **per-request stage traces** for the
  query service (the four request layers), disabled at zero cost by
  :data:`NULL_REQUEST_TRACE`;
* :mod:`repro.obs.slowlog` — the threshold-triggered, ring-buffered
  **slow-request log** behind ``/varz`` and ``/statusz``;
* :mod:`repro.obs.logsetup` — stdlib :mod:`logging` wiring for the
  ``repro`` logger hierarchy (package ``NullHandler`` by default,
  ``configure_logging`` for CLI ``--log-level``);
* :mod:`repro.obs.timeseries` — the bounded **telemetry history**: a
  collector thread snapshots metrics + scheduler on an interval into
  monotonic-clocked series with counter→rate derivation, windowed
  rollups and optional JSONL persistence;
* :mod:`repro.obs.alerts` — declarative **SLO/alert rules** (threshold
  and two-window burn-rate) with firing/resolved state machines behind
  ``/alertz`` and the ``alert`` journal kind;
* :mod:`repro.obs.sampler` — the continuous **stack-sampling
  profiler** (``sys._current_frames()`` at ~50 Hz) aggregating into
  deterministic collapsed-stack profiles, attributed to layers, and
  the ``/profilez`` flame view.

Quick start::

    from repro import GapEngine, Tracer

    tracer = Tracer()
    engine = GapEngine(["//item/name"], grammar=dtd, tracer=tracer)
    result = engine.run(xml_text, n_chunks=8)
    for span in tracer.spans:
        print(span.name, f"{span.duration * 1e3:.2f} ms", span.args)
"""

from .alerts import (
    DEFAULT_RULES,
    AlertManager,
    AlertRule,
    AlertState,
    parse_alert_rule,
    parse_alert_rules,
)
from .journal import NULL_JOURNAL, Event, Journal, NullJournal
from .layers import LAYERS, REQUEST_LAYERS, layer_seconds, self_times
from .logsetup import configure_logging, get_logger
from .sampler import SampleProfile, StackSampler
from .timeseries import Collector, TimeSeries, TimeSeriesStore
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_run_metrics,
    table_registry,
)
from .export import (
    chrome_trace,
    chunk_timeline,
    format_timeline,
    write_chrome_trace,
)
from .report import (
    Page,
    Section,
    build_report,
    explain_chunk,
    format_explain,
    format_request,
    render_flame,
    render_html,
    render_statusz,
    render_terminal,
    sparkline,
    varz_sections,
)
from .reqtrace import NULL_REQUEST_TRACE, NullRequestTrace, RequestTrace
from .slowlog import SlowEntry, SlowLog
from .tracer import NULL_TRACER, NullTracer, Span, Tracer, gc_spans

__all__ = [
    "AlertManager",
    "AlertRule",
    "AlertState",
    "Collector",
    "Counter",
    "DEFAULT_RULES",
    "Event",
    "Gauge",
    "Histogram",
    "Journal",
    "LAYERS",
    "MetricsRegistry",
    "NULL_JOURNAL",
    "NULL_REQUEST_TRACE",
    "NULL_TRACER",
    "NullJournal",
    "NullRequestTrace",
    "NullTracer",
    "Page",
    "REQUEST_LAYERS",
    "RequestTrace",
    "SampleProfile",
    "Section",
    "SlowEntry",
    "SlowLog",
    "Span",
    "StackSampler",
    "TimeSeries",
    "TimeSeriesStore",
    "Tracer",
    "build_report",
    "chrome_trace",
    "chunk_timeline",
    "collect_run_metrics",
    "configure_logging",
    "explain_chunk",
    "format_explain",
    "format_request",
    "format_timeline",
    "gc_spans",
    "get_logger",
    "layer_seconds",
    "parse_alert_rule",
    "parse_alert_rules",
    "render_flame",
    "render_html",
    "render_statusz",
    "render_terminal",
    "self_times",
    "sparkline",
    "table_registry",
    "varz_sections",
    "write_chrome_trace",
]
