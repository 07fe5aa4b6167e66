"""Tracing spans — wall-clock instrumentation of the pipeline phases.

A :class:`Span` is one named interval of wall-clock time plus a free
``args`` dict for counter snapshots; a :class:`Tracer` collects them.
The instrumented code uses one idiom everywhere, and every span name
is a layer of :data:`repro.obs.layers.LAYERS`::

    with tracer.span("transducer.mapping", cat="phase") as sp:
        ...                        # the timed work
        sp.args["misspeculations"] = totals.misspeculations

Which chunk, retry or fallback a span belongs to travels in ``args``
(``chunk=i``), never in its name.

The default tracer on every engine is the :data:`NULL_TRACER`
singleton, whose ``span`` call is a handful of attribute lookups that
allocate nothing and record nothing — the hot paths (the per-token
transducer loops) are never instrumented at all, so disabled tracing
leaves engine results and counters byte-identical to an uninstrumented
build.

Spans survive process boundaries: they are plain picklable dataclasses,
and per-worker spans travel back inside
:class:`~repro.transducer.mapping.ChunkResult` to be merged into the
coordinating tracer at join time.  Timestamps come from
:func:`time.perf_counter`, which on the supported platforms is a
system-wide monotonic clock, so worker spans and driver spans share a
timeline.

``tid`` is the span's *lane* for timeline rendering: 0 is the driver,
``1 + chunk_index`` is the worker that processed that chunk.

:func:`gc_spans` adds the garbage collector as the ``runtime.gc``
layer for the duration of one traced run.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "gc_spans"]

_clock = time.perf_counter

#: per thread, the tracers with a span open on it (innermost last)
_open = threading.local()


def _open_tracers() -> list:
    stack = getattr(_open, "tracers", None)
    if stack is None:
        stack = _open.tracers = []
    return stack


@dataclass(slots=True)
class Span:
    """One named wall-clock interval with attached attributes."""

    name: str
    t0: float
    t1: float = 0.0
    cat: str = "phase"
    tid: int = 0
    depth: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.t1 - self.t0


class _SpanHandle:
    """Context manager that times one span and records it on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._depth += 1
        _open_tracers().append(self._tracer)
        self.span.t0 = _clock()
        return self.span

    def __exit__(self, *exc: object) -> None:
        self.span.t1 = _clock()
        self._tracer._depth -= 1
        _open_tracers().pop()
        self._tracer.spans.append(self.span)


class Tracer:
    """Collects spans; share one per run (or one per worker, merged)."""

    enabled = True

    def __init__(self, tid: int = 0) -> None:
        self.spans: list[Span] = []
        self.tid = tid
        self._depth = 0

    def span(self, name: str, cat: str = "phase", **args: object) -> _SpanHandle:
        """Open a timed span; use as a context manager."""
        return _SpanHandle(
            self,
            Span(name=name, t0=0.0, cat=cat, tid=self.tid, depth=self._depth,
                 args=dict(args) if args else {}),
        )

    def extend(self, spans: list[Span]) -> None:
        """Merge spans collected elsewhere (e.g. by a worker process)."""
        self.spans.extend(spans)

    # -- queries over collected spans ---------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of all spans with ``name``, in seconds."""
        return sum(s.duration for s in self.spans if s.name == name)

    def chunk_spans(self) -> list[Span]:
        """The per-chunk kernel spans, in chunk order."""
        out = [s for s in self.spans if s.name == "core.kernel" and "chunk" in s.args]
        out.sort(key=lambda s: (s.tid, s.t0))
        return out


class _NullSpan:
    """The span stand-in handed out by :class:`NullTracer`.

    ``args`` returns a fresh throwaway dict on each access, so callers
    can mutate it unconditionally and the write costs one small
    allocation at most — no state accumulates.
    """

    __slots__ = ()

    @property
    def args(self) -> dict:
        return {}


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_HANDLE = _NullHandle()


class NullTracer:
    """Tracing disabled: every span is the same do-nothing handle."""

    enabled = False
    spans: tuple = ()
    tid = 0

    def span(self, name: str, cat: str = "phase", **args: object) -> _NullHandle:
        return _NULL_HANDLE

    def extend(self, spans: list[Span]) -> None:
        pass

    def by_name(self, name: str) -> list[Span]:
        return []

    def total(self, name: str) -> float:
        return 0.0

    def chunk_spans(self) -> list[Span]:
        return []


#: the process-wide disabled tracer (engines default to this)
NULL_TRACER = NullTracer()


@contextmanager
def gc_spans(tracer: Tracer):
    """Record each collection inside the block as a ``runtime.gc`` span.

    The span lands on the tracer whose span is innermost on the
    collecting thread (``tracer`` when none is open there), one level
    below that span, so the pause is charged to ``runtime.gc`` and not
    to the layer it interrupted.  Collections in process-pool workers
    are not seen.  Callers pass an enabled tracer: the disabled path
    must not pay for a ``gc.callbacks`` hook.
    """
    starts: dict[int, float] = {}

    def hook(phase: str, info: dict) -> None:
        ident = threading.get_ident()
        if phase == "start":
            starts[ident] = _clock()
            return
        t0 = starts.pop(ident, None)
        if t0 is None:
            return
        stack = _open_tracers()
        owner = stack[-1] if stack else tracer
        owner.spans.append(Span("runtime.gc", t0, _clock(), tid=owner.tid,
                                depth=owner._depth,
                                args={"generation": info["generation"]}))

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)
