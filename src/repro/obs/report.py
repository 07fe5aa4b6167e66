"""Pages: run reports, chunk explanations, ``/statusz`` and the flame view.

Turns one run's observability artefacts — tracing spans
(:mod:`repro.obs.tracer`), the structured event journal
(:mod:`repro.obs.journal`), the run statistics
(:mod:`repro.core.stats`), a service ``/varz`` snapshot or a sampled
profile — into human-facing pages.  A :class:`Page` is a title, a meta
line and a list of :class:`Section` tables; one text renderer
(:func:`render_terminal`) and one HTML renderer (:func:`render_html`)
draw every page:

* :func:`build_report` — the run report behind ``repro report`` (chunk
  timeline, per-layer self time, per-chunk path lifecycle, the Table
  5/6 profile);
* :func:`varz_sections` — the operator view of one ``/varz`` snapshot,
  served as ``/statusz`` (:func:`render_statusz`) and printed by
  ``repro top``;
* :func:`render_flame` — a sampled profile as a flamegraph page;
* :func:`explain_chunk` + :func:`format_explain` — ``repro explain``:
  replay one chunk's journal tag-by-tag and show where paths were
  spawned, killed, converged and switched.

Every HTML page is **self-contained and deterministic**: inline CSS
only, no scripts, no network assets, and byte-identical output for
identical input (the renderers are pure functions of their input).
The palette follows the repo's chart conventions: chart-chrome inks
for all text, one categorical series hue for the bars (a single series
needs no legend), light and dark values swapped by
``prefers-color-scheme`` with an explicit ``data-theme`` override.
"""

from __future__ import annotations

import html as _html
from collections.abc import Sequence
from dataclasses import dataclass, field

from .journal import Event, Journal
from .layers import REQUEST_LAYERS, layer_seconds, stage_key
from .sampler import SampleProfile, layer_of_label
from .textfmt import banner, format_cell, format_table

__all__ = [
    "VIEW_HISTORY",
    "ChunkExplanation",
    "Page",
    "Section",
    "build_report",
    "explain_chunk",
    "format_explain",
    "format_request",
    "layer_rows",
    "render_flame",
    "render_html",
    "render_sections",
    "render_statusz",
    "render_terminal",
    "sample_sections",
    "sparkline",
    "varz_meta",
    "varz_sections",
]


# ---------------------------------------------------------------------------
# explain: replay one chunk's lifecycle


#: journal kind → the verb the explanation prints
_EXPLAIN_VERBS = {
    "path_spawn": "spawn",
    "path_killed": "kill",
    "converge": "converge",
    "switch": "switch",
    "misspeculation": "misspeculate",
    "reprocess": "reprocess",
    "retry": "retry",
    "timeout": "timeout",
    "invalid": "invalid",
    "fallback": "fallback",
}


@dataclass(slots=True)
class ChunkExplanation:
    """One chunk's journal, replayed into a tag-by-tag narrative."""

    chunk: int
    #: ``[offset, tag, event, detail, live]`` rows in journal order
    rows: list[list[object]] = field(default_factory=list)
    #: paths the chunk started with (the Table 5 quantity for the chunk)
    starting_paths: int = 0
    spawned: int = 0
    killed: int = 0
    converged: int = 0
    switches: int = 0
    misspeculated: bool = False
    #: offset of the first convergence down to a single live group
    converge_offset: int | None = None

    @property
    def headers(self) -> list[str]:
        return ["offset", "tag", "event", "detail", "live"]


def _event_detail(ev: Event) -> str:
    a = ev.args
    kind = ev.kind
    if kind == "path_spawn":
        states = a.get("states")
        suffix = f" states={list(states)}" if states is not None else ""
        return f"{a.get('reason', '?')}{suffix}"
    if kind == "path_killed":
        return f"{a.get('reason', '?')} killed={a.get('killed', '?')}"
    if kind == "converge":
        return f"merged={a.get('merged', '?')}"
    if kind == "switch":
        return f"to={a.get('to', '?')}"
    if kind == "misspeculation":
        return f"state={a.get('state', '?')} stack_depth={a.get('stack_depth', '?')}"
    if kind == "reprocess":
        return f"[{a.get('begin', '?')}, {a.get('end', '?')}) tokens={a.get('tokens', '?')}"
    if kind in ("retry", "timeout", "invalid"):
        return f"attempt={a.get('attempt', '?')}"
    if kind == "fallback":
        return f"attempts={a.get('attempts', '?')}"
    return ""


def explain_chunk(journal: Journal, chunk: int) -> ChunkExplanation:
    """Replay ``chunk``'s journal events into a :class:`ChunkExplanation`.

    Spawn reasons ``initial``/``scenario1``/``enumerate`` mark the
    chunk's *starting* paths (Table 5's per-chunk quantity); subsequent
    ``divergence``/``revival`` spawns are mid-chunk path growth.
    """
    exp = ChunkExplanation(chunk=chunk)
    for ev in journal.events_for_chunk(chunk):
        verb = _EXPLAIN_VERBS.get(ev.kind)
        if verb is None:
            continue
        live = ev.args.get("live")
        exp.rows.append([
            ev.offset if ev.offset >= 0 else None,
            ev.tag,
            verb,
            _event_detail(ev),
            live,
        ])
        if ev.kind == "path_spawn":
            n = ev.args.get("live", 0)
            exp.spawned += n
            if ev.args.get("reason") in ("initial", "scenario1", "enumerate"):
                exp.starting_paths = max(exp.starting_paths, n)
        elif ev.kind == "path_killed":
            exp.killed += ev.args.get("killed", 0)
        elif ev.kind == "converge":
            exp.converged += ev.args.get("merged", 0)
            if exp.converge_offset is None and ev.args.get("live") == 1:
                exp.converge_offset = ev.offset
        elif ev.kind == "switch":
            exp.switches += 1
        elif ev.kind == "misspeculation":
            exp.misspeculated = True
    return exp


def format_explain(exp: ChunkExplanation) -> str:
    """Render one chunk's explanation as aligned text."""
    lines = [
        f"chunk {exp.chunk}: started {exp.starting_paths} path(s), "
        f"spawned {exp.spawned}, killed {exp.killed}, "
        f"converged {exp.converged}, {exp.switches} switch(es)"
    ]
    if exp.converge_offset is not None:
        lines.append(f"converged to a single path at offset {exp.converge_offset}")
    if exp.misspeculated:
        lines.append("misspeculated at join time (reprocessing engaged)")
    if exp.rows:
        lines.append(format_table(exp.headers, exp.rows))
    else:
        lines.append("(no journal events for this chunk — was the journal enabled?)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pages and their two renderers


@dataclass(frozen=True, slots=True)
class Section:
    """One titled table of a page; ``note`` is a line above the table.

    ``html`` is markup the HTML renderer places before the table (the
    timeline bars, the flame); the text renderer skips it.
    """

    title: str
    headers: Sequence[str] = ()
    rows: Sequence[Sequence[object]] = ()
    note: str = ""
    html: str = ""


@dataclass(slots=True)
class Page:
    """A title, a meta line and sections; ``footer`` is HTML-only."""

    title: str
    meta: str = ""
    sections: list[Section] = field(default_factory=list)
    footer: str = ""


def render_sections(sections: Sequence[Section]) -> str:
    """The sections as aligned text tables (what the CLI prints)."""
    out: list[str] = []
    for sec in sections:
        if not sec.headers and not sec.note:
            continue
        out.append(banner(sec.title))
        if sec.note:
            out.append(sec.note)
        if sec.headers:
            out.append(format_table(sec.headers, sec.rows))
    return "\n".join(out)


def render_terminal(page: Page) -> str:
    """The aligned-text form of a page (what ``repro report`` prints)."""
    out = [banner(page.title)]
    if page.meta:
        out.append(page.meta)
    out.append(render_sections(page.sections))
    return "\n".join(out) + "\n"


_CSS = """\
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --gridline: #2c2c2a;
  --baseline: #383835;
  --series-1: #3987e5;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--surface-1);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 14px; margin: 24px 0 8px; color: var(--text-primary); }
.viz-root .meta { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.viz-root table {
  border-collapse: collapse;
  font-size: 13px;
  font-variant-numeric: tabular-nums;
}
.viz-root th {
  text-align: left;
  color: var(--text-muted);
  font-weight: 500;
  border-bottom: 1px solid var(--baseline);
  padding: 4px 12px 4px 0;
}
.viz-root td {
  border-bottom: 1px solid var(--gridline);
  padding: 4px 12px 4px 0;
  color: var(--text-secondary);
}
.viz-root td:first-child { color: var(--text-primary); }
.viz-root .timeline { max-width: 720px; }
.viz-root .lane { display: flex; align-items: center; margin-bottom: 2px; }
.viz-root .lane-label {
  flex: 0 0 80px;
  font-size: 12px;
  color: var(--text-secondary);
  font-variant-numeric: tabular-nums;
}
.viz-root .lane-track {
  position: relative;
  flex: 1;
  height: 14px;
  background: transparent;
  border-left: 1px solid var(--baseline);
}
.viz-root .lane-bar {
  position: absolute;
  top: 0;
  height: 14px;
  border-radius: 0 4px 4px 0;
  background: var(--series-1);
  min-width: 2px;
}
.viz-root .lane-value {
  flex: 0 0 90px;
  font-size: 12px;
  color: var(--text-muted);
  text-align: right;
  font-variant-numeric: tabular-nums;
}
.viz-root .footer { color: var(--text-muted); font-size: 12px; margin-top: 24px; }
.viz-root .flame { position: relative; font-size: 11px; }
.viz-root .flame-box {
  position: absolute;
  height: 16px;
  line-height: 16px;
  overflow: hidden;
  white-space: nowrap;
  box-sizing: border-box;
  border-right: 1px solid var(--surface-1);
  border-bottom: 1px solid var(--surface-1);
  padding: 0 3px;
  color: #0b0b0b;
  background: var(--gridline);
}
.viz-root .flame-xpath { background: #d4c27a; }
.viz-root .flame-core { background: #e8a87f; }
.viz-root .flame-xmlstream, .viz-root .flame-jsonstream { background: #7fb9e8; }
.viz-root .flame-parallel, .viz-root .flame-transducer { background: #9fd49a; }
.viz-root .flame-stream, .viz-root .flame-store { background: #8fd0c9; }
.viz-root .flame-service { background: #c9a6dd; }
"""


def _esc(value: object) -> str:
    return _html.escape(str(value), quote=True)


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(format_cell(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def render_html(page: Page) -> str:
    """A page as one self-contained HTML document.

    Pure function of ``page``: no timestamps, no random ids, no
    scripts, no external assets — identical input renders
    byte-identical output.
    """
    parts: list[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(page.title)}</title>",
        f"<style>\n{_CSS}</style>",
        '</head><body class="viz-root">',
        f"<h1>{_esc(page.title)}</h1>",
    ]
    if page.meta:
        parts.append(f'<p class="meta">{_esc(page.meta)}</p>')
    for sec in page.sections:
        parts.append(f"<h2>{_esc(sec.title[:1].upper() + sec.title[1:])}</h2>")
        if sec.note:
            parts.append(f'<p class="meta">{_esc(sec.note)}</p>')
        if sec.html:
            parts.append(sec.html)
        if sec.headers:
            parts.append(_html_table(sec.headers, sec.rows))
    if page.footer:
        parts.append(f'<p class="footer">{page.footer}</p>')
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# the run report


def layer_rows(spans: Sequence) -> list[list[object]]:
    """``[layer, self ms, share of wall]`` rows; wall is the spans' extent."""
    if not spans:
        return []
    wall = max(s.t1 for s in spans) - min(s.t0 for s in spans)
    return [[layer, secs * 1e3, secs / wall if wall > 0 else None]
            for layer, secs in layer_seconds(spans).items()]


def build_report(
    stats,
    journal: Journal,
    spans: Sequence = (),
    matches: dict[str, list[int]] | None = None,
    title: str = "repro run report",
    meta: dict[str, object] | None = None,
) -> Page:
    """The run report page of one run's artefacts.

    ``stats`` is a :class:`~repro.core.stats.RunStats`; ``spans`` the
    tracer's span list (the per-chunk kernel spans become timeline
    bars, every span feeds the layer table); ``journal`` the run's
    flight recorder.
    """
    sections: list[Section] = []
    if matches:
        sections.append(Section("matches", ("query", "matches"),
                                [[q, len(offs)] for q, offs in matches.items()]))
    chunk_spans = sorted((s for s in spans
                          if s.name == "core.kernel" and "chunk" in s.args),
                         key=lambda s: s.args["chunk"])
    if chunk_spans:
        base = min(s.t0 for s in chunk_spans)
        timeline = [[s.args["chunk"], (s.t0 - base) * 1e3, s.duration * 1e3,
                     s.args.get("tokens"), s.args.get("switches"),
                     s.args.get("starting_paths")] for s in chunk_spans]
        sections.append(Section(
            "chunk timeline",
            ("chunk", "start ms", "dur ms", "tokens", "switches", "paths"),
            timeline, html=_timeline_bars(timeline)))
    if spans:
        sections.append(Section("layers (self time)", ("layer", "self ms", "share"),
                                layer_rows(spans)))
    lifecycle = []
    for ci in sorted({ev.chunk for ev in journal.events if ev.chunk >= 0}):
        exp = explain_chunk(journal, ci)
        lifecycle.append([ci, exp.starting_paths, exp.spawned, exp.killed,
                          exp.converged, exp.switches,
                          "yes" if exp.misspeculated else "-"])
    if lifecycle:
        sections.append(Section(
            "path lifecycle (per chunk)",
            ("chunk", "start paths", "spawned", "killed", "converged",
             "switches", "misspec"),
            lifecycle))
    c = stats.counters
    sections.append(Section("profile (Tables 5/6)", ("metric", "value"), [
        ["chunks", stats.n_chunks],
        ["avg starting paths (Table 5)", stats.avg_starting_paths],
        ["speculation accuracy (Table 6)", stats.speculation_accuracy],
        ["reprocessing cost (Table 6)", stats.reprocessing_cost],
        ["switches", c.switches],
        ["divergences", c.divergences],
        ["paths eliminated", c.paths_eliminated],
        ["paths converged", c.paths_converged],
        ["misspeculations", c.misspeculations],
        ["reprocessed tokens", c.reprocessed_tokens],
    ]))
    events = [[k, v] for k, v in sorted(journal.counts().items())]
    if journal.dropped:
        events.append(["(dropped past limit)", journal.dropped])
    if events:
        sections.append(Section("journal events", ("event", "count"), events))
    return Page(
        title, " · ".join(f"{k}: {v}" for k, v in (meta or {}).items()), sections,
        footer="Generated by <code>repro report</code> — self-contained, "
               "no external assets.",
    )


def _timeline_bars(timeline: Sequence[Sequence[object]]) -> str:
    """Horizontal bar lanes for the chunk timeline (single series)."""
    total = max((row[1] + row[2] for row in timeline), default=0.0) or 1.0
    lanes: list[str] = []
    for chunk, start_ms, dur_ms, *_rest in timeline:
        left = 100.0 * start_ms / total
        width = max(100.0 * dur_ms / total, 0.1)
        lanes.append(
            '<div class="lane">'
            f'<span class="lane-label">chunk {_esc(chunk)}</span>'
            '<span class="lane-track">'
            f'<span class="lane-bar" style="left:{left:.2f}%;width:{width:.2f}%"></span>'
            "</span>"
            f'<span class="lane-value">{dur_ms:.2f} ms</span>'
            "</div>"
        )
    return '<div class="timeline">' + "".join(lanes) + "</div>"


# ---------------------------------------------------------------------------
# following one request through the service journal


def format_request(journal: Journal, request_id: int) -> str:
    """Replay one service request's journal events as aligned text.

    The service tags every lifecycle event (``admit`` / ``expire`` /
    ``respond`` / ``trace``) with ``request=<id>`` and every ``batch``
    event with the ids it served, so one request's whole journey —
    including the merged pass it shared and that pass's chunk spans —
    reconstructs from the journal alone (``repro report
    --from-journal … --request N``).
    """

    mine = [ev for ev in journal.events if ev.args.get("request") == request_id]
    if not mine:
        return f"request {request_id}: no journal events (unknown id?)\n"
    batch_seqs = {
        ev.args["batch_seq"] for ev in mine if "batch_seq" in ev.args
    }
    batches = [
        ev for ev in journal.events
        if ev.kind == "batch" and ev.args.get("batch_seq") in batch_seqs
    ]
    lines = [f"request {request_id}"]
    rows = [
        [ev.kind, ev.args.get("doc", ""), _request_event_detail(ev)]
        for ev in sorted(mine + batches, key=lambda ev: ev.seq)
    ]
    lines.append(format_table(["event", "doc", "detail"], rows))
    trace = next((ev for ev in mine if ev.kind == "trace"), None)
    if trace is not None:
        stages = trace.args.get("stages_ms", {})
        if stages:
            lines.append(format_table(
                ["stage", "ms"], [[k, v] for k, v in stages.items()],
                title="stage breakdown",
            ))
        spans = trace.args.get("chunk_spans", [])
        if spans:
            lines.append(format_table(
                ["chunk", "start ms", "dur ms"], [list(row) for row in spans],
                title="chunk spans (owning batch)",
            ))
    return "\n".join(lines) + "\n"


def _request_event_detail(ev: Event) -> str:
    a = ev.args
    if ev.kind == "admit":
        return f"queries={a.get('queries', '?')}"
    if ev.kind == "batch":
        return (f"seq={a.get('batch_seq', '?')} size={a.get('size', '?')} "
                f"merged={a.get('merged_queries', '?')} "
                f"exec_s={a.get('exec_seconds', '?')}")
    if ev.kind == "respond":
        return f"batch_seq={a.get('batch_seq', '?')} matches={a.get('matches', '?')}"
    if ev.kind == "trace":
        return f"total_ms={a.get('total_ms', '?')} batch_seq={a.get('batch_seq', '?')}"
    if ev.kind == "expire":
        return "deadline passed before execution"
    return ""


# ---------------------------------------------------------------------------
# the operator view of one /varz snapshot (/statusz and repro top)


def _ms(value: object) -> object:
    """Seconds → milliseconds for display; passes ``None`` through."""
    if isinstance(value, (int, float)):
        return value * 1e3
    return value


def _rate(hits: float, misses: float) -> object:
    total = hits + misses
    return hits / total if total else None


def _latency_row(name: str, summary: dict) -> list[object]:
    return [name, summary.get("count"), _ms(summary.get("p50")),
            _ms(summary.get("p95")), _ms(summary.get("p99"))]


def varz_meta(varz: dict) -> str:
    """The one-line service summary above the ``/varz`` sections."""
    cfg = varz.get("config", {})
    collector = (varz.get("telemetry") or {}).get("collector", {})
    bits = [
        f"uptime {format_cell(varz.get('uptime_seconds'))} s",
        f"backend {cfg.get('backend', '?')}",
        f"workers {cfg.get('workers', '?')}",
        f"tracing {'on' if cfg.get('request_tracing') else 'off'}",
        f"queue {varz.get('queue_depth', 0)}/{cfg.get('max_queue', '?')}",
    ]
    if collector:
        bits.append(
            f"collector {'on' if collector.get('enabled') else 'off'} "
            f"(every {collector.get('interval', '?')} s, "
            f"{collector.get('errors', 0)} error(s))")
    return " · ".join(bits)


def varz_sections(varz: dict) -> list[Section]:
    """The operator view of one ``/varz`` snapshot, as page sections."""
    latency = varz.get("latency", {})
    sections = [Section(
        "service",
        ("queue depth", "in flight", "documents", "warm engines", "batches",
         "journal events"),
        [[varz.get("queue_depth"), varz.get("in_flight"), varz.get("documents"),
          varz.get("engines"), varz.get("batches_total"),
          varz.get("journal", {}).get("events")]],
    )]

    requests = varz.get("requests", {})
    if requests:
        sections.append(Section("requests by status", ("status", "total"),
                                [[s, requests[s]] for s in sorted(requests)]))

    stages = latency.get("stages", {})
    sections.append(Section(
        "latency (ms)", ("interval", "count", "p50", "p95", "p99"),
        [_latency_row("request (end-to-end)", latency.get("request_seconds", {})),
         *(_latency_row(layer, stages[stage_key(layer)])
           for layer in REQUEST_LAYERS if stage_key(layer) in stages),
         _latency_row("merged pass", latency.get("batch_seconds", {}))],
    ))

    batch_size = varz.get("batch_size", {})
    sections.append(Section(
        "batch occupancy", ("passes", "p50", "p95", "p99"),
        [[batch_size.get("count"), batch_size.get("p50"),
          batch_size.get("p95"), batch_size.get("p99")]],
    ))

    engine_cache = varz.get("engine_cache", {})
    compile_cache = varz.get("compile_cache", {})
    sections.append(Section("caches", ("cache", "hits", "misses", "hit rate"), [
        ["warm engines", engine_cache.get("hit", 0), engine_cache.get("miss", 0),
         _rate(engine_cache.get("hit", 0), engine_cache.get("miss", 0))],
        ["dense tables", compile_cache.get("hits", 0), compile_cache.get("misses", 0),
         _rate(compile_cache.get("hits", 0), compile_cache.get("misses", 0))],
    ]))

    slow = varz.get("slow_log", {})
    entries = slow.get("entries", [])
    note = (f"threshold: {format_cell(_ms(slow.get('threshold_seconds')))} ms · "
            f"recorded: {slow.get('recorded', 0)} · "
            f"evicted: {slow.get('evicted', 0)}")
    if entries:
        sections.append(Section(
            "slow requests",
            ("seq", "request", "doc", "total ms",
             *(f"{stage_key(layer)} ms" for layer in REQUEST_LAYERS),
             "batch", "size", "deadline frac"),
            [[e.get("seq"), e.get("request"), e.get("doc"), e.get("total_ms"),
              *(e.get("stages_ms", {}).get(stage_key(layer))
                for layer in REQUEST_LAYERS),
              e.get("batch_seq"), e.get("batch_size"), e.get("deadline_fraction")]
             for e in entries],
            note=note,
        ))
    else:
        sections.append(Section("slow requests", note=note + " · none over threshold"))

    alerts = varz.get("alerts")
    if alerts:
        firing = alerts.get("firing", [])
        sections.append(Section(
            "alerts",
            ("rule", "state", "series", "condition", "value", "fired", "resolved"),
            [[r.get("name"), r.get("state"), r.get("series"),
              f"{r.get('op', '')}{format_cell(r.get('threshold'))}",
              r.get("value"), r.get("fired_count"), r.get("resolved_count")]
             for r in alerts.get("rules", [])],
            note=f"firing: {len(firing)}"
                 + (f" ({', '.join(firing)})" if firing else ""),
        ))

    telemetry = varz.get("telemetry") or {}
    series = telemetry.get("series")
    note = (f"collector ticks: {telemetry.get('ticks', 0)} · "
            f"counter resets: {telemetry.get('resets', 0)}")
    if series:
        rows = []
        for name in sorted(series):
            entry = series[name]
            values = [p[1] for p in entry.get("points", [])]
            rows.append([name, entry.get("kind"), len(values),
                         values[-1] if values else None, sparkline(values)])
        sections.append(Section(
            "telemetry", ("series", "kind", "points", "last", "history"), rows,
            note=note))
    else:
        sections.append(Section(
            "telemetry", note=note + " · no history yet (the collector is off "
                                     "or has not ticked)"))
    return sections


def render_statusz(varz: dict) -> str:
    """The ``/statusz`` dashboard: :func:`varz_sections` as one HTML page.

    A pure function of the service's
    :meth:`~repro.service.service.QueryService.varz` snapshot — all
    freshness lives in the data, none in the renderer.
    """
    return render_html(Page(
        "repro service status", varz_meta(varz), varz_sections(varz),
        footer="Served at <code>/statusz</code> — self-contained, no external "
               "assets; data from <code>/varz</code>.",
    ))


# ---------------------------------------------------------------------------
# sparklines + the flame view (repro top / /profilez?format=flame)

#: eight block glyphs, lowest to highest
_SPARK_BARS = "▁▂▃▄▅▆▇█"

#: telemetry points per series the operator view asks ``/varz`` for
#: (``/statusz``, ``repro top``): one sparkline's width
VIEW_HISTORY = 30


def sparkline(values: Sequence[object], width: int = VIEW_HISTORY) -> str:
    """A unicode sparkline of the last ``width`` numeric values.

    Min/max scaled per call; a flat series renders the lowest bar.
    Pure and deterministic — the telemetry section of ``/statusz`` and
    ``repro top``.
    """
    nums = [float(v) for v in values if isinstance(v, (int, float))]
    if not nums:
        return ""
    nums = nums[-max(1, width):]
    lo, hi = min(nums), max(nums)
    span = hi - lo
    if span <= 0:
        return _SPARK_BARS[0] * len(nums)
    top = len(_SPARK_BARS) - 1
    return "".join(
        _SPARK_BARS[min(top, int((v - lo) / span * len(_SPARK_BARS)))]
        for v in nums
    )


def _flame_tree(counts: dict[str, int]) -> dict:
    """Fold collapsed-stack counts into a root-down weighted tree."""
    root: dict = {"label": "all", "count": 0, "children": {}}
    for key in sorted(counts):
        n = counts[key]
        root["count"] += n
        node = root
        for label in key.split(";"):
            child = node["children"].get(label)
            if child is None:
                child = {"label": label, "count": 0, "children": {}}
                node["children"][label] = child
            child["count"] += n
            node = child
    return root


def _flame_boxes(node: dict, left: float, width: float, depth: int,
                 total: int, out: list[str], max_depth: list[int]) -> None:
    max_depth[0] = max(max_depth[0], depth)
    layer = layer_of_label(node["label"]) if depth > 0 else None
    # one hue per top-level package of the owning layer
    cls = f"flame-box flame-{layer.partition('.')[0]}" if layer else "flame-box"
    share = 100.0 * node["count"] / total
    out.append(
        f'<div class="{cls}" '
        f'style="left:{left:.4f}%;top:{depth * 16}px;width:{width:.4f}%" '
        f'title="{_esc(node["label"])} — {node["count"]} samples '
        f'({share:.1f}%)">{_esc(node["label"])}</div>'
    )
    child_left = left
    for label in sorted(node["children"]):
        child = node["children"][label]
        child_width = width * child["count"] / node["count"]
        _flame_boxes(child, child_left, child_width, depth + 1, total,
                     out, max_depth)
        child_left += child_width


def sample_sections(profile: SampleProfile) -> list[Section]:
    """Samples per layer and the hottest leaf frames of one profile."""
    total = profile.total
    return [
        Section("samples by layer", ("layer", "samples", "share"),
                [[layer, n, n / total] for layer, n in profile.layers().items()]),
        Section("hottest frames (leaf)", ("frame", "samples"),
                [list(kv) for kv in profile.top(10)]),
    ]


def render_flame(counts: dict[str, int], title: str = "repro flame view",
                 meta: dict[str, object] | None = None) -> str:
    """A collapsed-stack profile as one self-contained HTML flamegraph.

    ``counts`` is ``"frame;frame" -> samples`` (a
    :meth:`~repro.obs.sampler.SampleProfile.to_dict`); children are laid
    out in sorted label order, so identical input renders byte-identical
    output.  Boxes are colored by the package of the layer that owns
    their frame.
    """
    profile = SampleProfile()
    if counts:
        profile.merge(counts)
    bits = [f"samples: {profile.total}", f"stacks: {len(profile)}"]
    bits += [f"{k}: {v}" for k, v in (meta or {}).items()]
    if profile.total:
        boxes: list[str] = []
        max_depth = [0]
        _flame_boxes(_flame_tree(profile.to_dict()), 0.0, 100.0, 0,
                     profile.total, boxes, max_depth)
        height = (max_depth[0] + 1) * 16
        sections = [*sample_sections(profile), Section(
            "flame", html=f'<div class="flame" style="height:{height}px">'
                          + "".join(boxes) + "</div>")]
    else:
        sections = [Section("flame", note="no samples captured")]
    return render_html(Page(
        title, " · ".join(bits), sections,
        footer="Collapsed-stack sampling profile — self-contained, no "
               "external assets.",
    ))
