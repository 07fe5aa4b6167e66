"""Span exporters: Chrome-tracing JSON and the per-chunk timeline table.

The Chrome trace event format (the subset emitted here: complete ``X``
events plus ``M`` thread-name metadata) loads directly into
``chrome://tracing`` and https://ui.perfetto.dev.  Timestamps are
microseconds relative to the earliest span, one lane (``tid``) per
chunk worker plus lane 0 for the driver phases.

:func:`format_timeline` renders the same spans as the aligned text
table ``repro profile`` prints: every span in start
order, with the counter snapshots (tokens, switches, starting paths)
the workers attached.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from .tracer import Span

__all__ = ["chrome_trace", "write_chrome_trace", "chunk_timeline", "format_timeline"]


def chrome_trace(spans: Sequence[Span], pid: int = 1) -> dict:
    """Spans → a Chrome-tracing/Perfetto JSON object (dict)."""
    base = min((s.t0 for s in spans), default=0.0)
    events: list[dict] = []
    tids = sorted({s.tid for s in spans})
    for tid in tids:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "driver" if tid == 0 else f"worker-{tid - 1}"},
        })
    for s in sorted(spans, key=lambda s: (s.t0, -s.duration)):
        events.append({
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            "ts": round((s.t0 - base) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "pid": pid,
            "tid": s.tid,
            "args": dict(s.args),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str, pid: int = 1) -> None:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans, pid=pid), fh, indent=1)
        fh.write("\n")


def chunk_timeline(spans: Sequence[Span]) -> tuple[list[str], list[list[object]]]:
    """Spans → (headers, rows) for the per-chunk timeline table.

    Rows are ordered by start time; nested spans (a worker's
    ``xmlstream.lex`` inside its ``core.kernel``) are indented by depth,
    and a chunk's spans carry its index (``core.kernel #3``).  The
    counter columns come from the args snapshots the instrumentation
    attached (absent values render as ``-``).
    """
    headers = ["span", "start ms", "dur ms", "tokens", "switches", "paths"]
    if not spans:
        return headers, []
    base = min(s.t0 for s in spans)
    rows: list[list[object]] = []
    for s in sorted(spans, key=lambda s: (s.t0, -s.duration)):
        args = s.args
        label = s.name if "chunk" not in args else f"{s.name} #{args['chunk']}"
        rows.append([
            "  " * s.depth + label,
            (s.t0 - base) * 1e3,
            s.duration * 1e3,
            args.get("tokens"),
            args.get("switches"),
            args.get("starting_paths"),
        ])
    return headers, rows


def format_timeline(spans: Sequence[Span], title: str | None = None) -> str:
    """Render the per-chunk timeline as an aligned text table."""
    from ..bench.reporting import format_table  # lazy: avoids an import cycle

    headers, rows = chunk_timeline(spans)
    return format_table(headers, rows, title=title)
