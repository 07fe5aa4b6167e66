"""Slow-request log — threshold-triggered, ring-buffered, queryable.

Percentiles (:meth:`~repro.obs.metrics.Histogram.quantile`) say *that*
the tail got slow; the slow log says *which requests* and *where the
time went*.  Whenever a request's end-to-end latency crosses the
configured threshold, its full span breakdown
(:class:`~repro.obs.reqtrace.RequestTrace`) is captured as a
:class:`SlowEntry` in a bounded ring buffer — old entries fall off the
back, so a sustained incident costs constant memory while the most
recent evidence is always on hand.

The log is queryable three ways:

* :meth:`SlowLog.snapshot` — the raw entries (newest last), with
  ``n``/``since`` limits (the ``/varz`` and ``/statusz`` surface);
* ``seq`` — every entry carries a monotonically increasing sequence
  number, so pollers can ask "anything new since seq S?" without
  re-downloading history;
* :attr:`SlowLog.recorded` / :attr:`SlowLog.evicted` — lifetime
  counters, so a scrape can tell "quiet service" from "ring wrapped".

All methods are thread-safe; ``consider`` on the fast path is one
comparison when the request is fast (the overwhelmingly common case).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = ["SlowEntry", "SlowLog"]

#: default latency threshold (seconds) before a request is logged
DEFAULT_THRESHOLD = 0.5

#: default ring capacity
DEFAULT_CAPACITY = 128


@dataclass(slots=True)
class SlowEntry:
    """One over-threshold request, with its full span breakdown."""

    seq: int
    req_id: int
    doc_id: str
    queries: tuple[str, ...]
    total_ms: float
    stages_ms: dict[str, float] = field(default_factory=dict)
    #: fraction of the deadline budget consumed (None = no deadline)
    deadline_fraction: float | None = None
    batch_seq: int = -1
    batch_size: int = 0
    #: ``[chunk, start_ms, dur_ms]`` kernel spans of the owning batch
    chunk_spans: list = field(default_factory=list)
    #: wall-clock (``time.time``) at capture, for operator display
    wall_ts: float = 0.0

    def to_dict(self) -> dict:
        out: dict = {
            "seq": self.seq,
            "request": self.req_id,
            "doc": self.doc_id,
            "queries": list(self.queries),
            "total_ms": round(self.total_ms, 3),
            "stages_ms": {k: round(v, 3) for k, v in self.stages_ms.items()},
            "batch_seq": self.batch_seq,
            "batch_size": self.batch_size,
            "wall_ts": self.wall_ts,
        }
        if self.deadline_fraction is not None:
            out["deadline_fraction"] = round(self.deadline_fraction, 4)
        if self.chunk_spans:
            out["chunk_spans"] = [list(row) for row in self.chunk_spans]
        return out


class SlowLog:
    """Bounded ring of :class:`SlowEntry` records over a threshold."""

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.threshold = threshold
        self.capacity = capacity
        self._ring: deque[SlowEntry] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        #: lifetime totals (recorded includes entries since evicted)
        self.recorded = 0
        self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def consider(self, total_seconds: float, make_entry) -> SlowEntry | None:
        """Record the request iff it crossed the threshold.

        ``make_entry(seq, wall_ts)`` builds the :class:`SlowEntry`
        lazily — fast requests (the common case) pay one float compare
        and nothing else.
        """
        if total_seconds < self.threshold:
            return None
        import time

        with self._lock:
            entry = make_entry(self._seq, time.time())
            self._seq += 1
            if len(self._ring) == self.capacity:
                self.evicted += 1
            self._ring.append(entry)
            self.recorded += 1
        return entry

    def snapshot(self, n: int | None = None, since: int | None = None) -> list[SlowEntry]:
        """The buffered entries, oldest first.

        ``since`` keeps only entries with ``seq > since``; ``n`` keeps
        the newest ``n`` of what remains.
        """
        with self._lock:
            entries = list(self._ring)
        if since is not None:
            entries = [e for e in entries if e.seq > since]
        if n is not None and n >= 0:
            entries = entries[-n:] if n else []
        return entries

    def to_dicts(self, n: int | None = None, since: int | None = None) -> list[dict]:
        return [e.to_dict() for e in self.snapshot(n=n, since=since)]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
