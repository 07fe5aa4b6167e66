"""Per-request tracing — where one service request's time went.

The engine's spans (:mod:`repro.obs.tracer`) decompose one *pass*;
a service request additionally waits in the admission queue for a
free worker, is drained into a batch with whatever else is waiting,
shares a merged execution with its batch companions and is
demultiplexed back out.  A :class:`RequestTrace` is
the request-scoped record of that journey: monotonic marks at each
stage boundary, stitched to the owning batch's engine spans at
execution time.

The four stages are the request layers of :mod:`repro.obs.layers`
(``REQUEST_LAYERS``), keyed in JSON by their last name part (see
``docs/SERVICE.md``)::

    admit ──▶ queue_wait ──▶ batch_assembly ──▶ execute ──▶ respond
    (enqueued)   (dequeued)      (exec_start)   (exec_end)  (responded)

* ``service.batching.queue_wait`` — admitted, sitting in the bounded
  queue until a worker is free to take it;
* ``service.batching.batch_assembly`` — dequeued, while the worker
  drains whatever is already queued (no window: nothing waits for
  companions) and groups the batch by document; a later group of the
  same batch also waits here for the groups the worker runs before it;
* ``service.service.execute`` — the merged-automaton pass the request
  shared, including the warm-engine fetch (or build on a cache miss);
* ``service.service.respond`` — demultiplexing and future delivery.

The stages partition the service-side interval, so they **sum to the
end-to-end latency exactly** (the tests pin this); the client
additionally observes its HTTP transport on top.

Zero-overhead contract (mirrors :class:`~repro.obs.tracer.NullTracer`):
when request tracing is disabled the scheduler carries the
:data:`NULL_REQUEST_TRACE` singleton, whose ``mark`` is a constant
no-op — per request the disabled path costs a handful of attribute
lookups and no allocation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .layers import REQUEST_LAYERS, stage_key

__all__ = ["RequestTrace", "NullRequestTrace", "NULL_REQUEST_TRACE"]

_clock = time.monotonic

#: the JSON key of each request layer, in lifecycle order
_KEYS = tuple(stage_key(layer) for layer in REQUEST_LAYERS)


@dataclass(slots=True)
class RequestTrace:
    """Monotonic stage marks for one admitted request.

    All timestamps come from :func:`time.monotonic` (the scheduler's
    deadline clock), so stage durations compose with the request's
    deadline budget.  ``chunk_spans`` holds ``[chunk, start_ms, dur_ms]``
    rows copied from the owning batch's engine tracer — the stitch
    point between request-level and chunk-level observability.
    """

    enabled = True

    enqueued: float = field(default_factory=_clock)
    dequeued: float = 0.0
    exec_start: float = 0.0
    exec_end: float = 0.0
    responded: float = 0.0
    #: id of the merged pass that served this request (-1 = never ran)
    batch_seq: int = -1
    #: ``[chunk, start_ms_into_exec, dur_ms]`` rows from the batch tracer
    chunk_spans: list = field(default_factory=list)

    def mark(self, stage: str, now: float | None = None) -> None:
        """Stamp one lifecycle boundary (idempotent per stage)."""
        setattr(self, stage, _clock() if now is None else now)

    # -- derived ------------------------------------------------------

    @property
    def total(self) -> float:
        """End-to-end service-side latency (admission → response)."""
        return max(0.0, self.responded - self.enqueued)

    def stage_seconds(self) -> dict[str, float]:
        """Seconds per request layer; the stages sum exactly to :attr:`total`.

        A request that died early (expired, rejected at dispatch)
        reports zero for the stages it never reached: each boundary
        falls back to the previous one when it was never marked.
        """
        marks = [self.enqueued]
        for t in (self.dequeued, self.exec_start, self.exec_end, self.responded):
            marks.append(t or marks[-1])
        return {key: max(0.0, b - a) for key, a, b in zip(_KEYS, marks, marks[1:])}

    def deadline_fraction(self, deadline: float | None) -> float | None:
        """Fraction of the deadline budget the request consumed.

        ``deadline`` is the request's *absolute* monotonic deadline;
        the budget is ``deadline - enqueued``.  > 1.0 means the
        request blew its deadline; ``None`` when it had none.
        """
        if deadline is None:
            return None
        budget = deadline - self.enqueued
        if budget <= 0:
            return float("inf")
        return self.total / budget

    def to_dict(self, stages: dict[str, float] | None = None) -> dict:
        """JSON-ready breakdown (slow log rows, ``/varz``, journal).

        ``stages`` is this trace's :meth:`stage_seconds`, when the
        caller has already computed it.
        """
        if stages is None:
            stages = self.stage_seconds()
        out: dict = {
            "total_ms": round(self.total * 1e3, 3),
            "stages_ms": {k: round(v * 1e3, 3) for k, v in stages.items()},
        }
        if self.batch_seq >= 0:
            out["batch_seq"] = self.batch_seq
        if self.chunk_spans:
            out["chunk_spans"] = [list(row) for row in self.chunk_spans]
        return out


class NullRequestTrace:
    """Request tracing disabled: every mark is a constant no-op."""

    enabled = False
    enqueued = 0.0
    dequeued = 0.0
    exec_start = 0.0
    exec_end = 0.0
    responded = 0.0
    batch_seq = -1
    chunk_spans: tuple = ()
    total = 0.0

    def mark(self, stage: str, now: float | None = None) -> None:
        return None

    def stage_seconds(self) -> dict[str, float]:
        return {}

    def deadline_fraction(self, deadline: float | None) -> float | None:
        return None

    def to_dict(self, stages: dict[str, float] | None = None) -> dict:
        return {}


#: the process-wide disabled trace (requests default to this)
NULL_REQUEST_TRACE = NullRequestTrace()
