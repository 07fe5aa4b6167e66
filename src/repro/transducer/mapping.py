"""Mappings (Definition 3) and the join phase — segmented representation.

A chunk processed without its true context yields mappings
``m = (q_s, z_s, q_f, z_f, o)``.  Materialising one mapping per
``(start state × pop values…)`` combination explodes combinatorially
with the number of divergences; the double-tree representation of
Ogden et al. avoids that, and this module captures the same insight
directly:

    after an underflow pop the transducer's configuration is exactly
    (popped value, empty local stack) — independent of everything that
    happened before the pop.

A chunk's execution therefore factorises into **segments** separated by
its divergences.  Segment 0 is keyed by the assumed starting state;
segment *i* (>0) is keyed by the value assumed popped at divergence
*i*.  Each key maps to the events produced during that segment, and
the final segment's entries also carry the finishing state and pushed
stack.  Storage is linear in (#segments × #keys); the join
reconstructs any concrete mapping by indexing segment *i* with the
*actual* incoming stack's *i*-th-from-top value:

    events(q_s, v_1.. v_k) = E_0[q_s] ++ E_1[v_1] ++ … ++ E_k[v_k]

Speculative GAP adds **restart cohorts**: independent segment chains
begun mid-chunk at a path-revival point (Section 5.2).  A cohort whose
lookup fails mid-chain still contributes its prefix — the join resumes
sequential reprocessing *from the failed divergence*, which is what
makes reprocessing selective.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..obs.journal import NULL_JOURNAL
from ..obs.logsetup import get_logger
from ..xpath.events import MatchEvent
from .counters import WorkCounters

logger = get_logger("transducer.join")

__all__ = [
    "SegmentEntry",
    "Segment",
    "Cohort",
    "ChunkResult",
    "JoinError",
    "StackUnderflow",
    "join_results",
]


@dataclass(slots=True)
class SegmentEntry:
    """One key's outcome within a segment.

    ``final_state``/``pushed`` are only meaningful in a chunk's last
    segment (elsewhere the segment ends in a divergence, whose outcome
    is the assumed pop of the *next* segment).
    """

    events: list[MatchEvent]
    final_state: int = -1
    pushed: tuple[int, ...] = ()


@dataclass(slots=True)
class Segment:
    """Execution between two synchronisation points of one cohort.

    ``entries`` maps the segment key — assumed start state for segment
    0, assumed popped value otherwise — to its outcome.  ``end_tag``/
    ``end_offset`` identify the underflowing end tag that closed the
    segment (``None``/chunk end for the final segment).  A key absent
    from ``entries`` was either never enumerated or eliminated as
    infeasible.
    """

    entries: dict[int, SegmentEntry] = field(default_factory=dict)
    end_tag: str | None = None
    end_offset: int = -1


@dataclass(slots=True)
class Cohort:
    """One chain of segments: the main chain or a speculative restart.

    The main cohort has ``restart_offset == chunk.begin`` and
    ``restart_index == -1``; restart cohorts record the token index and
    offset where execution was revived with an empty local stack.
    """

    segments: list[Segment] = field(default_factory=list)
    restart_index: int = -1
    restart_offset: int = -1
    #: chunk-local element depth at the cohort's entry point (0 for the
    #: main cohort); the join rebases event depths by
    #: ``len(concrete stack at entry) - restart_depth``
    restart_depth: int = 0

    @property
    def is_restart(self) -> bool:
        return self.restart_index >= 0


@dataclass(slots=True)
class ChunkResult:
    """All cohorts of one chunk, plus its work counters.

    ``spans`` carries any tracing spans the worker recorded while
    processing the chunk (:mod:`repro.obs.tracer`); ``journal`` carries
    any flight-recorder events (:mod:`repro.obs.journal`); ``samples``
    carries any collapsed-stack profiler samples
    (:meth:`repro.obs.sampler.SampleProfile.to_dict`).  Because the
    whole result is pickled back from process-pool workers, all three
    survive the process boundary and get merged into the coordinating
    tracer/journal/profile — the journal strictly in chunk order, so
    the merged event stream is deterministic across backends.
    """

    index: int
    begin: int
    end: int
    cohorts: list[Cohort] = field(default_factory=list)
    counters: WorkCounters = field(default_factory=WorkCounters)
    spans: list = field(default_factory=list)
    journal: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    @property
    def main(self) -> Cohort | None:
        for c in self.cohorts:
            if not c.is_restart:
                return c
        return None

    def restarts(self) -> list[Cohort]:
        out = [c for c in self.cohorts if c.is_restart]
        out.sort(key=lambda c: c.restart_offset)
        return out

    def mapping_entries(self) -> int:
        return sum(len(s.entries) for c in self.cohorts for s in c.segments)


class JoinError(RuntimeError):
    """Raised when joining fails irrecoverably (engine invariant broken)."""


class StackUnderflow(RuntimeError):
    """An end tag required a pop from an empty stack.

    Raised by :meth:`repro.core.kernel.DenseRunner.run_from`, where the
    configuration is known, so it means malformed input; in a chunk run
    the same event is a *path divergence* instead.
    """

    def __init__(self, offset: int) -> None:
        super().__init__(f"pop from empty stack at offset {offset}")
        self.offset = offset


@dataclass(slots=True)
class _CohortOutcome:
    """Result of consuming one cohort chain against a concrete context."""

    complete: bool
    events: list[MatchEvent]
    # on completion:
    state: int = -1
    pops: int = 0
    pushed: tuple[int, ...] = ()
    # on partial failure: where sequential reprocessing must resume
    resume_offset: int = -1
    resume_state: int = -1
    resume_pops: int = 0
    #: the resume position points AT the already-consumed end token of
    #: the failed divergence; reprocessing must skip it
    resume_skip_end: bool = False


def _consume(cohort: Cohort, state: int, stack: Sequence[int]) -> _CohortOutcome:
    """Walk a cohort's segments with the concrete incoming context.

    Event depths are rebased from chunk-local to absolute using the
    concrete stack height at the cohort's entry point.
    """
    segments = cohort.segments
    if not segments:
        return _CohortOutcome(False, [], resume_offset=cohort.restart_offset,
                              resume_state=state, resume_pops=0)
    base = len(stack) - cohort.restart_depth
    events: list[MatchEvent] = []
    entry = segments[0].entries.get(state)
    if entry is None:
        return _CohortOutcome(False, [], resume_offset=cohort.restart_offset,
                              resume_state=state, resume_pops=0)
    events.extend(ev.rebased(base) for ev in entry.events)
    pops = 0
    n = len(stack)
    for prev, seg in zip(segments, segments[1:]):
        # divergence at prev.end: the next value of the incoming stack pops
        if pops >= n:
            # the chunk pops deeper than the real incoming stack — only
            # possible for malformed input; discard the prefix and let
            # the caller reprocess from the cohort's start (defensive)
            return _CohortOutcome(False, [], resume_offset=cohort.restart_offset,
                                  resume_state=-2, resume_pops=0)
        value = stack[n - 1 - pops]
        pops += 1
        entry = seg.entries.get(value)
        if entry is None:
            # the true popped value was eliminated/not enumerated: resume
            # at the underflowing end token (already consumed: the pop
            # itself is the known value) and skip it when reprocessing
            return _CohortOutcome(False, events, resume_offset=prev.end_offset,
                                  resume_state=value, resume_pops=pops,
                                  resume_skip_end=True)
        events.extend(ev.rebased(base) for ev in entry.events)
    return _CohortOutcome(True, events, state=entry.final_state, pops=pops,
                          pushed=entry.pushed)


#: reprocess(begin_offset, end_offset, state, stack, skip_end_at_begin)
#:     -> (state, stack, events, n_tokens)
#: ``skip_end_at_begin`` asks the reprocessor to drop one leading end
#: token at exactly ``begin_offset`` (a divergence the join already
#: resolved).
ReprocessFn = Callable[
    [int, int, int, list[int], bool],
    tuple[int, list[int], list[MatchEvent], int],
]


def join_results(
    first: tuple[int, list[int], list[MatchEvent]],
    chunks: list[ChunkResult],
    reprocess: ReprocessFn,
    counters: WorkCounters,
    strict: bool = False,
    journal=NULL_JOURNAL,
) -> tuple[int, list[int], list[MatchEvent]]:
    """Join phase: link chunk mappings in document order.

    ``first`` is the concrete starting configuration (state, stack,
    events) before the first chunk in ``chunks``; chunk 0 runs from the
    known initial configuration so its (single-key) lookup always
    succeeds.  ``strict`` (non-speculative mode) turns any failed
    lookup into a :class:`JoinError` — a complete grammar's inference
    must never exclude the true path.

    Returns the final configuration and the ordered event list.
    """
    state, stack, events = first
    for chunk in chunks:
        counters.join_steps += 1
        main = chunk.main
        outcome = _consume(main, state, stack) if main is not None else None
        if outcome is not None and outcome.complete:
            events.extend(outcome.events)
            if outcome.pops:
                del stack[len(stack) - outcome.pops :]
            stack.extend(outcome.pushed)
            state = outcome.state
            continue

        if strict:
            raise JoinError(
                f"no mapping matched at chunk {chunk.index} "
                f"(state={state}, stack depth={len(stack)}) in non-speculative mode"
            )
        counters.misspeculations += 1
        if journal.enabled:
            journal.record("misspeculation", chunk=chunk.index, offset=chunk.begin,
                           state=state, stack_depth=len(stack))
        if logger.isEnabledFor(logging.WARNING):
            logger.warning(
                "misspeculation at chunk %d [%d, %d) (state=%d, stack depth=%d)",
                chunk.index, chunk.begin, chunk.end, state, len(stack),
            )
        state, stack = _recover(chunk, outcome, state, stack, events, reprocess, counters)
    return state, stack, events


def _recover(
    chunk: ChunkResult,
    main_outcome: _CohortOutcome | None,
    state: int,
    stack: list[int],
    events: list[MatchEvent],
    reprocess: ReprocessFn,
    counters: WorkCounters,
) -> tuple[int, list[int]]:
    """Selective reprocessing after a misspeculated chunk.

    Uses whatever prefix the main cohort validated, then alternates
    sequential reprocessing with attempts to re-enter restart cohorts,
    earliest first.  Worst case reprocesses the remaining suffix of the
    chunk — never more.
    """
    # 1. bank the main cohort's validated prefix
    skip_end = False
    if main_outcome is not None and main_outcome.events:
        events.extend(main_outcome.events)
    if main_outcome is not None and main_outcome.resume_offset >= 0:
        pos = main_outcome.resume_offset
        skip_end = main_outcome.resume_skip_end
        if main_outcome.resume_pops:
            del stack[len(stack) - main_outcome.resume_pops :]
        if main_outcome.resume_state >= 0:
            cur_state = main_outcome.resume_state
        else:
            cur_state = state
    else:
        pos = chunk.begin
        cur_state = state
    cur_stack = stack

    # 2. walk forward, trying restart cohorts as we reach them
    for cohort in chunk.restarts():
        if cohort.restart_offset < pos:
            continue
        if cohort.restart_offset > pos:
            s, st, evs, n_tok = reprocess(
                pos, cohort.restart_offset, cur_state, cur_stack, skip_end
            )
            skip_end = False
            counters.reprocessed_tokens += n_tok
            events.extend(evs)
            cur_state, cur_stack = s, st
            pos = cohort.restart_offset
        outcome = _consume(cohort, cur_state, cur_stack)
        if outcome.complete:
            events.extend(outcome.events)
            if outcome.pops:
                del cur_stack[len(cur_stack) - outcome.pops :]
            cur_stack.extend(outcome.pushed)
            return outcome.state, cur_stack
        if outcome.resume_offset > pos:
            # partial credit: the cohort validated a prefix
            events.extend(outcome.events)
            if outcome.resume_pops:
                del cur_stack[len(cur_stack) - outcome.resume_pops :]
            if outcome.resume_state >= 0:
                cur_state = outcome.resume_state
            pos = outcome.resume_offset
            skip_end = outcome.resume_skip_end

    # 3. no cohort finished the chunk: reprocess the remaining suffix
    if pos < chunk.end or skip_end:
        s, st, evs, n_tok = reprocess(pos, chunk.end, cur_state, cur_stack, skip_end)
        counters.reprocessed_tokens += n_tok
        events.extend(evs)
        cur_state, cur_stack = s, st
    return cur_state, cur_stack
