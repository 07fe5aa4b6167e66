"""Flight recorder — a bounded, structured event journal for one run.

Spans (:mod:`repro.obs.tracer`) answer *where the time went*; the
journal answers *what the grammar-aware machinery did*: which paths a
chunk started with, which feasible-table row killed which of them,
where the survivors converged, when the runner switched between tree
and stack execution, which chunks misspeculated and what got
reprocessed, plus the resilience ladder (retry/timeout/fallback) and
the compile cache (hit/miss).  Tables 5/6 of the paper are plain
aggregations over this event stream.

Event kinds and their arguments (see ``docs/OBSERVABILITY.md`` for the
full schema):

=================  ========================================================
``path_spawn``     paths entered execution (``reason``: ``initial`` /
                   ``scenario1`` / ``enumerate`` / ``divergence`` /
                   ``revival``; ``states``, ``live``)
``path_killed``    a feasibility check eliminated paths (``reason``:
                   ``infeasible`` for scenario 1/3 start-tag checks,
                   ``underflow`` for the scenario-2 check at a
                   divergence; ``killed``, ``live``)
``converge``       path groups merged at a pop (``merged``, ``live``)
``switch``         runtime data-structure switch (``to``: ``stack`` /
                   ``tree``)
``misspeculation`` a chunk's speculated mapping missed at join time
                   (``state``, ``stack_depth``)
``reprocess``      a byte range re-executed sequentially (``begin``,
                   ``end``, ``tokens``)
``retry``          a chunk attempt re-scheduled (``attempt``, ``cause``)
``timeout``        a chunk attempt exceeded its deadline (``attempt``)
``invalid``        a chunk returned a corrupt result (``attempt``,
                   ``cause``)
``fallback``       a chunk re-executed on the serial fallback
                   (``attempts``, ``cause``)
``cache_hit`` /    compile-cache lookup outcome (``size``)
``cache_miss``
``store_hit`` /    artifact-store read outcome (``artifact`` kind;
``store_miss``     hits also carry ``bytes``)
``store_write``    an artifact published to the store (``artifact``,
                   ``bytes``)
``store_invalid``  an artifact rejected as corrupt, truncated or stale
                   (``artifact``, ``reason``)
``alert``          an SLO alert rule transitioned (``rule``, ``state``:
                   ``firing`` / ``resolved``; ``series``, ``value``,
                   ``threshold``)
=================  ========================================================

Design contract (mirrors the tracer exactly):

* the default on every engine is the :data:`NULL_JOURNAL` singleton,
  whose ``record`` is a constant no-op — the hot token loops are never
  instrumented, so a disabled journal costs nothing and leaves results
  byte-identical;
* events are plain picklable dataclasses; per-worker events travel back
  inside :class:`~repro.transducer.mapping.ChunkResult.journal` and are
  adopted into the driver journal *in chunk order*, so the merged
  stream is deterministic across the serial and thread backends
  (only the wall-clock ``ts`` field differs — compare with
  ``to_jsonl(timestamps=False)``);
* the journal is **bounded**: past ``limit`` events it counts drops
  instead of growing, so a pathological run cannot exhaust memory.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from collections.abc import Iterable

__all__ = ["Event", "Journal", "NullJournal", "NULL_JOURNAL", "EVENT_KINDS"]

_clock = time.perf_counter

#: every kind the instrumentation emits (pinned by tests and docs)
EVENT_KINDS = (
    "path_spawn",
    "path_killed",
    "converge",
    "switch",
    "misspeculation",
    "reprocess",
    "retry",
    "timeout",
    "invalid",
    "fallback",
    "cache_hit",
    "cache_miss",
    "store_hit",
    "store_miss",
    "store_write",
    "store_invalid",
    "memo_hit",
    "memo_miss",
    "memo_reject",
    "alert",
)

#: default event-count bound per journal
DEFAULT_LIMIT = 65536


@dataclass(slots=True)
class Event:
    """One recorded occurrence; picklable, JSON-friendly.

    ``chunk`` is the chunk index (-1 for driver-side events with no
    chunk identity, e.g. compile-cache lookups), ``offset`` the byte
    offset in the document where known, ``tag`` the element tag where
    one is involved.  ``seq`` is the journal-assigned global sequence
    number (re-assigned on adoption so the merged stream numbers
    events in their deterministic merged order); ``ts`` is
    ``time.perf_counter()`` at record time and is the only
    non-deterministic field.
    """

    kind: str
    chunk: int = -1
    offset: int = -1
    tag: str | None = None
    seq: int = -1
    ts: float = 0.0
    args: dict = field(default_factory=dict)

    def to_dict(self, timestamps: bool = True) -> dict:
        """A JSON-ready dict; ``timestamps=False`` drops the ``ts`` field."""
        out: dict = {"seq": self.seq, "kind": self.kind, "chunk": self.chunk}
        if self.offset >= 0:
            out["offset"] = self.offset
        if self.tag is not None:
            out["tag"] = self.tag
        if timestamps:
            out["ts"] = self.ts
        if self.args:
            out["args"] = dict(sorted(self.args.items()))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(
            kind=data["kind"],
            chunk=data.get("chunk", -1),
            offset=data.get("offset", -1),
            tag=data.get("tag"),
            seq=data.get("seq", -1),
            ts=data.get("ts", 0.0),
            args=dict(data.get("args", {})),
        )


class Journal:
    """Collects events; share one per run (or one per worker, adopted)."""

    enabled = True

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit <= 0:
            raise ValueError(f"journal limit must be positive, got {limit}")
        self.limit = limit
        self.events: list[Event] = []
        #: events discarded after the bound was reached
        self.dropped = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def record(
        self,
        kind: str,
        chunk: int = -1,
        offset: int = -1,
        tag: str | None = None,
        **args: object,
    ) -> None:
        """Append one event (or count a drop past the bound)."""
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(
            Event(kind=kind, chunk=chunk, offset=offset, tag=tag,
                  seq=self._seq, ts=_clock(), args=dict(args) if args else {})
        )
        self._seq += 1

    def adopt(self, events: Iterable[Event]) -> None:
        """Merge events recorded elsewhere (e.g. by a chunk worker).

        Sequence numbers are re-assigned in adoption order, so a driver
        journal that adopts each chunk's events in chunk order carries
        one deterministic global ordering regardless of which backend
        (or how many threads) produced them.
        """
        for ev in events:
            if len(self.events) >= self.limit:
                self.dropped += 1
                continue
            ev.seq = self._seq
            self._seq += 1
            self.events.append(ev)

    # -- queries over collected events ---------------------------------

    def counts(self) -> dict[str, int]:
        """Event totals by kind (insertion-ordered by first occurrence)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def by_kind(self, kind: str) -> list[Event]:
        return [ev for ev in self.events if ev.kind == kind]

    def events_for_chunk(self, chunk: int) -> list[Event]:
        return [ev for ev in self.events if ev.chunk == chunk]

    # -- serialisation -------------------------------------------------

    def to_jsonl(self, timestamps: bool = True) -> str:
        """One compact JSON object per line (trailing newline included).

        ``timestamps=False`` omits the ``ts`` field — the form two runs
        of the same work compare byte-identical in.
        """
        lines = [
            json.dumps(ev.to_dict(timestamps=timestamps),
                       separators=(",", ":"), sort_keys=True)
            for ev in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str, timestamps: bool = True) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl(timestamps=timestamps))

    @classmethod
    def from_jsonl(cls, text: str, limit: int = DEFAULT_LIMIT) -> "Journal":
        journal = cls(limit=limit)
        events = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
        journal.adopt(events)
        return journal

    @classmethod
    def read_jsonl(cls, path: str, limit: int = DEFAULT_LIMIT) -> "Journal":
        with open(path, encoding="utf-8") as fh:
            return cls.from_jsonl(fh.read(), limit=limit)


class NullJournal:
    """Journaling disabled: ``record`` is a constant no-op."""

    enabled = False
    events: tuple = ()
    dropped = 0
    limit = 0

    def __len__(self) -> int:
        return 0

    def record(self, kind: str, chunk: int = -1, offset: int = -1,
               tag: str | None = None, **args: object) -> None:
        return None

    def adopt(self, events: Iterable[Event]) -> None:
        return None

    def counts(self) -> dict[str, int]:
        return {}

    def by_kind(self, kind: str) -> list[Event]:
        return []

    def events_for_chunk(self, chunk: int) -> list[Event]:
        return []

    def to_jsonl(self, timestamps: bool = True) -> str:
        return ""


#: the process-wide disabled journal (engines default to this)
NULL_JOURNAL = NullJournal()
