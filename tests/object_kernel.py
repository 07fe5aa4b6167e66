"""Object-graph chunk kernel: the differential oracle for the dense kernel.

:class:`ChunkRunner` interprets the parallel phase straight from the
automaton and policy objects — the same semantics as
:class:`repro.core.kernel.DenseRunner`, with none of its compiled
tables or fast loops.  The test suite runs both and asserts equality
on matches, aggregate counters and per-chunk counters
(``tests/test_kernel_differential.py``).  It asks the policy's
:class:`~repro.core.inference.FeasibleTable` itself
(``start_states``, ``lookup_start``, ``lookup_end``) where the dense
kernel reads the rows compiled from it; a policy without a table, or
with ``ELIMINATE_NEVER``, answers "every state".

Live paths are grouped into :class:`~repro.transducer.doubletree.PathGroup`
objects, organised into cohorts (one chain per synchronisation lineage
— the main chain plus any speculative restarts).  All groups of a
cohort share their local stack depth, so a cohort's groups always
underflow together; each underflow closes the cohort's current segment
and reopens it keyed by the enumerated pop candidates.

:func:`run_sequential` is the sequential oracle for
:meth:`repro.core.kernel.DenseRunner.run_from`: the pushdown transducer
of Definition 1 read straight off the automaton, one :class:`Token`
view at a time.  :meth:`ChunkRunner.run_from` is that loop, so
reprocessing and the sequential engine run on it too inside
:func:`object_kernel`.

:func:`run_sequential` and :meth:`ChunkRunner.run_chunk` step every
row; they count ``skipped_tokens`` by the dense single-stack loop's rule
(the rows after a START that enters the automaton's dead state while
that loop would run, up to and including its END or the last row),
without skipping anything.

:func:`object_kernel` swaps the oracle into every pipeline built inside
it by patching :func:`repro.transducer.pipeline._make_runner`; the
patch covers the serial and thread backends alike.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from contextlib import contextmanager

import pytest

from repro.core.kernel import _LiveCohort, spawn_states_arg
from repro.obs.journal import NULL_JOURNAL
from repro.obs.logsetup import get_logger
from repro.transducer import pipeline
from repro.transducer.counters import WorkCounters
from repro.transducer.doubletree import PathGroup, merge_groups, segment_entries
from repro.transducer.mapping import (
    ChunkResult,
    Cohort,
    Segment,
    SegmentEntry,
    StackUnderflow,
)
from repro.transducer.policies import ELIMINATE_ALWAYS, ELIMINATE_NEVER, PathPolicy
from repro.xmlstream.tokens import Token, TokenKind
from repro.xpath.automaton import QueryAutomaton
from repro.xpath.events import MatchEvent, close, hit

__all__ = ["ChunkRunner", "object_kernel", "run_sequential"]

logger = get_logger("transducer.object_kernel")


@contextmanager
def object_kernel():
    """Run every pipeline chunk inside the block on :class:`ChunkRunner`."""
    def make_runner(automaton, policy, anchor_sids, tables, memo=False):
        return ChunkRunner(automaton, policy, anchor_sids)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_make_runner", make_runner)
        yield


class ChunkRunner:
    """Executes chunks under a path policy (see module docstring)."""

    def __init__(
        self,
        automaton: QueryAutomaton,
        policy: PathPolicy,
        anchor_sids: frozenset[int] = frozenset(),
    ) -> None:
        self.automaton = automaton
        self.policy = policy
        self.anchor_sids = anchor_sids
        self._all_states = frozenset(range(automaton.n_states))
        #: the feasible table the elimination scenarios and divergence
        #: enumeration consult (``None``: no information)
        self._table = policy.table if policy.eliminate != ELIMINATE_NEVER else None
        # per-state tuple of anchor sub-queries to close on end tags
        self._close_accepts: list[tuple[int, ...]] = [
            tuple(sid for sid in acc if sid in anchor_sids) for acc in automaton.accepts
        ]
        # DEBUG logging is sampled once per chunk, not per token
        self._debug = False
        # journal + chunk identity of the run_chunk call in progress
        self._journal = NULL_JOURNAL
        self._chunk = -1

    # ------------------------------------------------------------------

    def run_from(
        self,
        tokens: Iterable[Token],
        state: int,
        stack: list[int],
        counters: WorkCounters,
    ) -> tuple[int, list[int], list[MatchEvent]]:
        """The sequential oracle from ``(state, stack)`` (``DenseRunner.run_from``)."""
        return run_sequential(self.automaton, tokens, self.anchor_sids,
                              state, stack, counters)

    def run_chunk(
        self,
        tokens: Iterable[Token],
        index: int,
        begin: int,
        end: int,
        start_states: frozenset[int] | None = None,
        journal=NULL_JOURNAL,
        entry: tuple[int, tuple[int, ...]] | None = None,
    ) -> ChunkResult:
        """Process one chunk; return its segmented mappings and counters.

        ``start_states`` overrides the policy's scenario-1 inference —
        used for chunk 0, which always starts from the known initial
        configuration.  ``entry`` is the chunk's exact ``(state,
        stack)``: the chunk then runs :func:`run_sequential` from it.  ``journal`` records the path-lifecycle events
        (spawn/kill/converge/switch) — the default
        :data:`~repro.obs.journal.NULL_JOURNAL` records nothing; events
        are only emitted at check/divergence/merge/switch sites, never
        per token, so the hot loops are identical either way.
        """
        policy = self.policy
        automaton = self.automaton
        accepts = automaton.accepts
        self._debug = logger.isEnabledFor(logging.DEBUG)
        self._journal = journal
        self._chunk = index
        counters = WorkCounters(chunks=1, bytes_lexed=end - begin)
        result = ChunkResult(index=index, begin=begin, end=end, counters=counters)

        if entry is not None:
            state0, stack0 = entry
            counters.starting_paths = 1
            if journal.enabled:
                journal.record("path_spawn", chunk=index, offset=begin,
                               reason="initial", **spawn_states_arg((state0,)))
            state, stack, events = self.run_from(tokens, state0, list(stack0),
                                                 counters)
            main = Cohort(restart_offset=begin, restart_depth=len(stack0))
            main.segments.append(Segment(
                entries={state0: SegmentEntry(events, state, tuple(stack))}))
            result.cohorts.append(main)
            counters.mapping_entries = 1
            return result

        token_iter = iter(tokens)
        first = next(token_iter, None)
        if first is None:
            # empty chunk: identity mapping for every allowed state
            states = start_states if start_states is not None else self._all_states
            counters.starting_paths = len(states)
            if journal.enabled:
                reason = "initial" if start_states is not None else "enumerate"
                journal.record("path_spawn", chunk=index, offset=begin,
                               reason=reason, **spawn_states_arg(states))
            groups = [PathGroup.fresh(s) for s in sorted(states)]
            main = Cohort(restart_offset=begin)
            main.segments.append(Segment(entries=segment_entries(groups, final=True)))
            result.cohorts.append(main)
            counters.mapping_entries = result.mapping_entries()
            return result

        spawn_reason = "initial"
        if start_states is None:
            table = self._table
            inferred = table.start_states(first) if table is not None else None
            if inferred is None:
                inferred = self._all_states
                spawn_reason = "enumerate"
                if policy.table_based:
                    counters.degraded_lookups += 1
            else:
                spawn_reason = "scenario1"
            start_states = inferred

        main = _LiveCohort(cohort=Cohort(restart_offset=begin))
        main.groups = [PathGroup.fresh(s) for s in sorted(start_states)]
        counters.starting_paths = len(main.groups)
        if journal.enabled:
            journal.record("path_spawn", chunk=index, offset=begin,
                           reason=spawn_reason, **spawn_states_arg(start_states))
        cohorts: list[_LiveCohort] = [main]

        stack_mode = policy.switch_to_stack and len(main.groups) == 1
        pending_check = False
        eliminate = policy.eliminate
        speculative = policy.speculative
        switch_enabled = policy.switch_to_stack
        depth = 0  # chunk-local element depth (may go negative)
        # `n_live` is maintained incrementally: the group count only
        # changes at checks, divergences and eliminations (profiling
        # showed the per-token recount dominating the hot loop)
        n_live = len(main.groups)
        step = automaton.step
        START, END = TokenKind.START, TokenKind.END
        # the dense kernel's single-stack loop runs a row when one path
        # is live in stack mode with no check pending (switching on, not
        # ELIMINATE_ALWAYS); `skip_open` counts the elements open inside
        # the one it is skipping
        fast_ok = switch_enabled and eliminate != ELIMINATE_ALWAYS
        dead = automaton.dead
        skip_open = 0

        for ti, tok in enumerate(_chain_first(first, token_iter)):
            kind = tok.kind
            fast = False
            if skip_open:
                counters.skipped_tokens += 1
                if kind == START:
                    skip_open += 1
                elif kind == END:
                    skip_open -= 1
            else:
                fast = fast_ok and stack_mode and n_live == 1 and not pending_check

            if n_live == 0:
                if not speculative:
                    break  # non-speculative: no recovery inside the chunk
                if kind != START:
                    continue  # wait for a start tag to revive at

            if kind == START:
                tag = tok.name
                if eliminate != ELIMINATE_NEVER and (
                    pending_check or eliminate == ELIMINATE_ALWAYS or n_live == 0
                ):
                    self._start_tag_check(cohorts, tag, ti, tok.offset, depth, counters)
                    pending_check = False
                    n_live = sum(len(lc.groups) for lc in cohorts)
                    if n_live == 0:
                        depth += 1
                        continue
                offset = tok.offset
                depth += 1
                for lc in cohorts:
                    for g in lc.groups:
                        g.stack.append(g.state)
                        s2 = step(g.state, tag)
                        g.state = s2
                        acc = accepts[s2]
                        if acc:
                            g.events.extend(hit(sid, offset, depth) for sid in acc)
                        if fast and s2 == dead:
                            skip_open = 1
                # pushes are injective in (state, stack): no merging needed

            elif kind == END:
                tag = tok.name
                for lc in cohorts:
                    if not lc.groups:
                        continue
                    if eliminate == ELIMINATE_ALWAYS:
                        feas = self._lookup_end(tag)
                        if feas is not None:
                            kept = [g for g in lc.groups if g.state in feas]
                            counters.paths_eliminated += len(lc.groups) - len(kept)
                            lc.groups = kept
                            if not lc.groups:
                                continue
                    # cohort groups share their depth: all underflow or none
                    if lc.groups[0].stack:
                        self._normal_pop(lc, tok.offset, depth, counters)
                    else:
                        self._diverge(lc, tag, tok.offset, depth, counters)
                        pending_check = True
                n_live = sum(len(lc.groups) for lc in cohorts)
                depth -= 1

            # TEXT: plain transition — state and stack unchanged

            if stack_mode and n_live == 1:
                counters.stack_tokens += 1
            else:
                counters.tree_tokens += 1
                counters.tree_path_steps += n_live
                new_mode = switch_enabled and n_live == 1
                if new_mode != stack_mode:
                    counters.switches += 1
                    stack_mode = new_mode
                    if journal.enabled:
                        journal.record("switch", chunk=index, offset=tok.offset,
                                       to="stack" if new_mode else "tree")

        for lc in cohorts:
            lc.cohort.segments.append(
                Segment(entries=segment_entries(lc.groups, final=True))
            )
            result.cohorts.append(lc.cohort)
        counters.mapping_entries = result.mapping_entries()
        if self._debug and counters.paths_eliminated:
            logger.debug(
                "chunk %d path-kill summary: started %d, eliminated %d, "
                "converged %d, %d divergence(s), %d switch(es)",
                index, counters.starting_paths, counters.paths_eliminated,
                counters.paths_converged, counters.divergences, counters.switches,
            )
        return result

    # ------------------------------------------------------------------

    def _lookup_start(self, tag: str) -> frozenset[int] | None:
        """States feasible immediately before ``<tag>`` (``None``: all)."""
        return self._table.lookup_start(tag) if self._table is not None else None

    def _lookup_end(self, tag: str) -> frozenset[int] | None:
        """States feasible immediately before ``</tag>`` (``None``: all)."""
        return self._table.lookup_end(tag) if self._table is not None else None

    def _start_tag_check(
        self,
        cohorts: list[_LiveCohort],
        tag: str,
        token_index: int,
        offset: int,
        depth: int,
        counters: WorkCounters,
    ) -> None:
        """Elimination scenario 3 (and speculative path revival)."""
        policy = self.policy
        feas = self._lookup_start(tag)
        if feas is None:
            if policy.table_based:
                counters.degraded_lookups += 1
            return
        live_states: set[int] = set()
        eliminated = 0
        for lc in cohorts:
            kept = [g for g in lc.groups if g.state in feas]
            eliminated += len(lc.groups) - len(kept)
            lc.groups = kept
            live_states.update(g.state for g in kept)
        counters.paths_eliminated += eliminated
        journal = self._journal
        if journal.enabled and eliminated:
            journal.record("path_killed", chunk=self._chunk, offset=offset, tag=tag,
                           reason="infeasible", killed=eliminated,
                           live=sum(len(lc.groups) for lc in cohorts))
        if self._debug and eliminated:
            logger.debug(
                "scenario-3 check before <%s> at %d: eliminated %d path(s), %d live",
                tag, offset, eliminated, len(live_states),
            )
        if policy.speculative:
            # replace semantics: revive feasible states not currently live
            # as a fresh restart cohort (Section 5.2)
            missing = sorted(feas - live_states)
            if missing:
                revived = _LiveCohort(
                    cohort=Cohort(
                        restart_index=token_index,
                        restart_offset=offset,
                        restart_depth=depth,
                    )
                )
                revived.groups = [PathGroup.fresh(s) for s in missing]
                cohorts.append(revived)
                if journal.enabled:
                    journal.record("path_spawn", chunk=self._chunk, offset=offset,
                                   tag=tag, reason="revival",
                                   **spawn_states_arg(missing))

    def _normal_pop(
        self, lc: _LiveCohort, offset: int, depth: int, counters: WorkCounters
    ) -> None:
        """Balanced end tag: emit anchor closes, pop, merge convergences."""
        close_accepts = self._close_accepts
        for g in lc.groups:
            ca = close_accepts[g.state]
            if ca:
                g.events.extend(close(sid, offset, depth) for sid in ca)
            g.state = g.stack.pop()
        lc.groups, converged = merge_groups(lc.groups)
        counters.paths_converged += converged
        if converged and self._journal.enabled:
            self._journal.record("converge", chunk=self._chunk, offset=offset,
                                 merged=converged, live=len(lc.groups))

    def _diverge(
        self, lc: _LiveCohort, tag: str, offset: int, depth: int, counters: WorkCounters
    ) -> None:
        """Underflow pop: close the segment, reopen keyed by candidates."""
        policy = self.policy
        counters.divergences += 1

        groups = lc.groups
        # elimination scenario 2: the current state must be feasible
        # immediately before this end tag
        if policy.eliminate != ELIMINATE_NEVER:
            feas = self._lookup_end(tag)
            if feas is None:
                if policy.table_based:
                    counters.degraded_lookups += 1
            else:
                kept = [g for g in groups if g.state in feas]
                counters.paths_eliminated += len(groups) - len(kept)
                if len(kept) < len(groups):
                    if self._journal.enabled:
                        self._journal.record(
                            "path_killed", chunk=self._chunk, offset=offset,
                            tag=tag, reason="underflow",
                            killed=len(groups) - len(kept), live=len(kept))
                    if self._debug:
                        logger.debug(
                            "scenario-2 check at divergence </%s> at %d: "
                            "eliminated %d path(s), %d live",
                            tag, offset, len(groups) - len(kept), len(kept),
                        )
                groups = kept

        close_accepts = self._close_accepts
        for g in groups:
            ca = close_accepts[g.state]
            if ca:
                g.events.extend(close(sid, offset, depth) for sid in ca)

        lc.cohort.segments.append(
            Segment(entries=segment_entries(groups, final=False), end_tag=tag, end_offset=offset)
        )

        # the popped value is whatever was pushed at the matching start
        # tag, i.e. a state feasible immediately before ``<tag>``
        candidates = self._lookup_start(tag)
        if candidates is None:
            candidates = self._all_states
            if policy.table_based:
                counters.degraded_lookups += 1
        lc.groups = [PathGroup.fresh(v) for v in sorted(candidates)]
        if self._journal.enabled:
            self._journal.record("path_spawn", chunk=self._chunk, offset=offset,
                                 tag=tag, reason="divergence",
                                 **spawn_states_arg(candidates))


def _chain_first(first: Token, rest: Iterable[Token]) -> Iterable[Token]:
    yield first
    yield from rest


def run_sequential(
    automaton: QueryAutomaton,
    tokens: Iterable[Token],
    anchor_sids: frozenset[int] = frozenset(),
    state: int | None = None,
    stack: list[int] | None = None,
    counters: WorkCounters | None = None,
) -> tuple[int, list[int], list[MatchEvent]]:
    """Run the sequential pushdown transducer (Definition 1) over ``tokens``.

    The finite control is the query DFA and the stack alphabet its state
    set.  A start tag pushes the current state and moves to
    ``δ(state, tag)``, writing a HIT for each sub-query the new state
    accepts; an end tag writes a CLOSE for each *anchor* sub-query the
    current state accepts, then pops; text leaves state and stack
    alone.  ``state``/``stack`` default to the initial configuration;
    ``stack`` is not copied.  Returns ``(state, stack, events)`` and
    adds one ``stack_tokens`` per token to ``counters``, and one
    ``skipped_tokens`` per token below a START that entered the dead
    state, up to and including its END.

    Raises :class:`StackUnderflow` at the offset of an end tag that
    arrives with an empty stack, after counting the tokens before it.
    """
    if state is None:
        state = automaton.initial
    if stack is None:
        stack = []
    events: list[MatchEvent] = []
    accepts = automaton.accepts
    dead = automaton.dead
    n_tokens = 0
    skipped = 0
    skip_open = 0  # elements open below a START that entered `dead`
    depth = len(stack)  # element depth = open elements = stack height

    for tok in tokens:
        n_tokens += 1
        kind = tok.kind
        in_skip = skip_open > 0
        if in_skip:
            skipped += 1
            if kind == TokenKind.START:
                skip_open += 1
            elif kind == TokenKind.END:
                skip_open -= 1
        if kind == TokenKind.START:
            stack.append(state)
            depth += 1
            state = automaton.step(state, tok.name)
            for sid in accepts[state]:
                events.append(hit(sid, tok.offset, depth))
            if state == dead and not in_skip:
                skip_open = 1
        elif kind == TokenKind.END:
            if not stack:
                if counters is not None:
                    counters.stack_tokens += n_tokens - 1
                    counters.skipped_tokens += skipped
                raise StackUnderflow(tok.offset)
            for sid in accepts[state]:
                if sid in anchor_sids:
                    events.append(close(sid, tok.offset, depth))
            state = stack.pop()
            depth -= 1

    if counters is not None:
        counters.stack_tokens += n_tokens
        counters.skipped_tokens += skipped
    return state, stack, events
