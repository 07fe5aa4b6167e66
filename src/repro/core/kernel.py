"""Dense table-driven chunk kernel — the parallel phase of every engine.

:class:`DenseRunner` executes one chunk of the document under a
:class:`~repro.transducer.policies.PathPolicy` record: multi-path
execution with the three elimination scenarios, speculative revival,
divergence segmentation and runtime data-structure switching, over the
flat integer tables of :mod:`repro.xpath.compile_tables`.  Depending on
the policy it behaves as

* the **PP-Transducer** parallel phase (``PathPolicy.baseline()``:
  start from every state, enumerate Γ on divergence, never eliminate,
  never switch data structures),
* the **GAP transducer** parallel phase (``PathPolicy.gap(table)``:
  grammar-restricted starts and divergences, dynamic path elimination,
  runtime data-structure switching), or
* the **speculative GAP** parallel phase (same over a partial table,
  plus replace-semantics at post-divergence checks and path *revival*
  that enables selective reprocessing).

Live paths are grouped into :class:`~repro.transducer.doubletree.PathGroup`
objects, organised into **cohorts** (one chain per synchronisation
lineage — the main chain plus any speculative restarts).  All groups
of a cohort share their local stack depth, so a cohort's groups always
underflow together; each underflow closes the cohort's current
*segment* (see :mod:`repro.transducer.mapping`) and reopens it keyed
by the enumerated pop candidates.

Two execution regimes, switched per token (Section 4.3):

* **multi-path phase** — the double tree of the PP-Transducer: cohorts
  of path groups advance in lockstep, however many paths are live,
  with feasibility checks answered from precompiled per-symbol rows
  (``bytes`` bitmaps indexed by state) and DFA moves from one flat
  ``array('i')`` lookup;
* **single-stack fast loop** — entered whenever exactly one path is
  live with switching enabled and no post-divergence check pending
  (the "executes exactly like a sequential pushdown transducer" state
  of Section 4.3).  The loop keeps the state, the stack and the
  transition base as Python locals and reads no policy field at all;
  it exits to the multi-path code on stack underflow (the next
  divergence) without consuming the underflowing token.  The same
  loop, entered from a known ``(state, stack)`` by
  :meth:`DenseRunner.run_from`, is the library's sequential transducer
  (Definition 1): the sequential baseline, the join's reprocessing, and
  every chunk of a registered document, which :meth:`DenseRunner.run_chunk`
  runs from its exact entry configuration (``entry``).

The single-stack loop (and the memo's copy of it) skips every element
a START opens in the automaton's dead state: it counts the element's
rows to its END and steps none of them (``skipped_tokens``); the
multi-path phase steps every row.

Work accounting: every token adds either one stack-mode step or one
tree-mode step weighted by the number of live groups, a skipped row
included.  These counters drive the simulated-cluster speedup model
(DESIGN.md §2), and the test suite pins them, with the matches, to an
object-graph interpreter of the same semantics
(``tests/object_kernel.py``).

A runner is built either from precompiled :class:`KernelTables`
(shipped to workers by the pipeline) or compiles them on construction
through the structural cache (:func:`tables_for_policy`).
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import length_hint

from ..obs.journal import NULL_JOURNAL
from ..obs.logsetup import get_logger
from ..transducer.counters import WorkCounters
from ..transducer.doubletree import PathGroup, merge_groups, segment_entries
from ..transducer.mapping import (
    ChunkResult,
    Cohort,
    Segment,
    SegmentEntry,
    StackUnderflow,
)
from ..transducer.policies import ELIMINATE_ALWAYS, ELIMINATE_NEVER, PathPolicy
from ..xmlstream.tokens import Token, TokenColumns, TokenKind, as_columns
from ..xpath.automaton import QueryAutomaton
from ..xpath.compile_tables import KernelTables, compiled_tables
from ..xpath.events import MatchEvent, close, hit

__all__ = ["DenseRunner", "spawn_states_arg", "tables_for_policy"]

logger = get_logger("core.kernel")

_START = int(TokenKind.START)
_END = int(TokenKind.END)

#: state lists longer than this are journalled as a count only
_MAX_JOURNAL_STATES = 16


def spawn_states_arg(states) -> dict:
    """The ``path_spawn`` args snapshot for a starting-state set.

    Small sets are recorded verbatim (they are what ``repro explain``
    replays); larger ones only as a count, to keep events bounded.
    """
    states = sorted(states)
    if len(states) <= _MAX_JOURNAL_STATES:
        return {"live": len(states), "states": states}
    return {"live": len(states)}


@dataclass(slots=True)
class _LiveCohort:
    """A cohort still executing: its finished segments + live groups."""

    cohort: Cohort
    groups: list[PathGroup] = field(default_factory=list)


def _dead_end(kinds: bytearray, i: int) -> tuple[int, int]:
    """Where the element whose START is row ``i`` ends, by depth count.

    Returns ``(j, 0)`` with ``j`` the row of its END, or, when the rows
    end first, ``(len(kinds) - 1, n)`` with ``n`` elements still open.
    """
    open_ = 1
    for j in range(i + 1, len(kinds)):
        kind = kinds[j]
        if kind == _START:
            open_ += 1
        elif kind == _END:
            open_ -= 1
            if not open_:
                return j, 0
    return len(kinds) - 1, open_


def tables_for_policy(
    automaton: QueryAutomaton,
    policy: PathPolicy,
    anchor_sids: frozenset[int] = frozenset(),
    journal=NULL_JOURNAL,
) -> KernelTables:
    """Compile (and cache) the dense tables a policy runs on.

    The tables depend only on the automaton, the anchors and the
    policy's feasible table; the policy's other fields are read by the
    runner itself.
    """
    return compiled_tables(automaton, policy.table, anchor_sids, journal=journal)


class DenseRunner:
    """Table-driven chunk executor (see module docstring).

    ``tables`` are the precompiled :class:`KernelTables` pipeline
    workers receive, so they skip compilation entirely; without them
    the runner compiles its own (:func:`tables_for_policy`).
    """

    def __init__(
        self,
        automaton: QueryAutomaton,
        policy: PathPolicy,
        anchor_sids: frozenset[int] = frozenset(),
        tables: KernelTables | None = None,
        memo=None,
    ) -> None:
        if tables is None:
            tables = tables_for_policy(automaton, policy, anchor_sids)
        self.automaton = automaton
        self.policy = policy
        self.anchor_sids = anchor_sids
        self.tables = tables
        #: optional :class:`repro.xpath.subseq.MemoTable` — structural-
        #: repetition memoization, consulted only by the single-stack
        #: fast loop (``None`` runs the plain dense kernel)
        self._memo = memo
        # DEBUG logging is sampled once per chunk, not per token
        self._debug = False
        # journal + chunk identity of the run_chunk call in progress
        self._journal = NULL_JOURNAL
        self._chunk = -1

    # ------------------------------------------------------------------

    def run_chunk(
        self,
        tokens: TokenColumns | Iterable[Token],
        index: int,
        begin: int,
        end: int,
        start_states: frozenset[int] | None = None,
        journal=NULL_JOURNAL,
        entry: tuple[int, tuple[int, ...]] | None = None,
    ) -> ChunkResult:
        """Process one chunk; return its segmented mappings and counters.

        ``tokens`` are the chunk's :class:`~repro.xmlstream.tokens.TokenColumns`
        as the lexer, the registry and the stream produce them.  Any
        other token iterable is converted once by
        :func:`~repro.xmlstream.tokens.as_columns`: the benchmark's
        traced lexer wrappers (``perfbench/spans.py``) still hand the
        kernel lists and iterators of views.  The loops below read the
        columns and build no :class:`Token` view (the opt-in memo
        variant excepted).

        ``start_states`` overrides the policy's scenario-1 inference —
        used for chunk 0, which always starts from the known initial
        configuration.  ``journal`` records path-lifecycle events
        (spawn/kill/converge/switch) at check, divergence, merge and
        switch sites only; the fast loops are never instrumented per
        token (they only run while no lifecycle event is possible), so
        the default :data:`~repro.obs.journal.NULL_JOURNAL` costs
        nothing.  With a memo attached, span-granular ``memo_hit`` /
        ``memo_miss`` events are recorded at consultation sites and
        ``memo_reject`` events at plan adoption — cache events, like
        ``cache_hit``: deterministic per run but dependent on what the
        shared memo already holds, so they are excluded from the
        cross-backend byte-equality contract the lifecycle stream keeps.

        ``entry`` is the chunk's exact configuration ``(state, stack)``,
        known for a registered document (its open-element path at the
        chunk start, stepped through the transition table).  The chunk
        then runs the single-stack loop alone from there: one starting
        path, no inference, no tree mode, no divergences, event depths
        absolute.  See :meth:`_run_exact`.
        """
        T = self.tables
        policy = self.policy
        self._debug = logger.isEnabledFor(logging.DEBUG)
        self._journal = journal
        self._chunk = index
        counters = WorkCounters(chunks=1, bytes_lexed=end - begin)
        result = ChunkResult(index=index, begin=begin, end=end, counters=counters)

        cols = as_columns(tokens)
        if entry is not None:
            return self._run_exact(cols, entry, result)
        n_tok = len(cols)
        if not n_tok:
            states = start_states if start_states is not None else T.all_states
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

        # the columns: kinds[i], symmap[name_ids[i]] and offsets[i] are
        # token i's kind, symbol and offset; the string table is mapped
        # to symbols once per chunk
        kinds = cols.kinds
        name_ids = cols.name_ids
        offsets = cols.offsets
        names = cols.names
        symmap = self._symbols(cols)

        spawn_reason = "initial"
        if start_states is None:
            inferred = self._scenario1(kinds[0], symmap[name_ids[0]])
            if inferred is None:
                inferred = T.all_states
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

        eliminate = policy.eliminate
        speculative = policy.speculative
        switch_enabled = policy.switch_to_stack
        always = eliminate == ELIMINATE_ALWAYS
        never = eliminate == ELIMINATE_NEVER

        stack_mode = switch_enabled and len(main.groups) == 1
        pending_check = False
        depth = 0  # chunk-local element depth (may go negative)
        n_live = len(main.groups)

        trans = T.trans
        S = T.n_symbols
        accepts = T.accepts
        accept_flags = T.accept_flags
        close_accepts = T.close_accepts
        close_flags = T.close_flags
        end_rows = T.end_rows

        # the single-stack fast loop is safe whenever one live path can
        # only be interrupted by a divergence (ELIMINATE_ALWAYS also
        # checks *every* tag, so it must stay in the general loop)
        fast_ok = switch_enabled and not always

        # structural-repetition memo: the per-list plan names the
        # whole-element spans worth consulting; rejects (hash collisions
        # caught by exact verification) are journalled per run
        memo = self._memo
        plan = None
        if memo is not None and fast_ok:
            # the memo plans over, and replays into, Token views
            sym_of = T.sym_ids.get
            other_sym = T.other_sym
            toks = list(cols)
            plan = memo.plan_for(toks)
        if plan is not None and plan.rejects and journal.enabled:
            for rj, rl in plan.rejects:
                journal.record("memo_reject", chunk=index,
                               offset=toks[rj].offset, tokens=rl)

        i = 0
        while i < n_tok:
            if fast_ok and stack_mode and n_live == 1 and not pending_check:
                # ---- single-stack fast loop (Section 4.3) -------------
                g = next(lc.groups[0] for lc in cohorts if lc.groups)
                if plan is None:
                    i0 = i
                    i, g.state, depth, skipped = self._stack_loop(
                        cols, symmap, i, g.state, g.stack, g.events, depth)
                    counters.stack_tokens += i - i0
                    counters.skipped_tokens += skipped
                else:
                    # ---- memo-aware variant: identical token semantics,
                    # plus consult/record/replay at planned span starts.
                    # A planned span is a whole element, so inside it the
                    # stack never dips below its entry level: once the
                    # fast loop holds at the span's START, the entire
                    # span completes in it, the net stack delta is zero
                    # and the exit state equals the entry state — which
                    # is what makes replay exact.  Dead elements are
                    # skipped as in _stack_loop; a span that skipped any
                    # rows is not memoized, so a replay skips none.
                    state = g.state
                    stack = g.stack
                    events = g.events
                    push = stack.append
                    pop = stack.pop
                    extend = events.extend
                    n_fast = 0
                    n_skip = 0
                    dead = T.dead
                    append_ev = events.append
                    starts = plan.starts
                    span_at = plan.spans
                    n_starts = len(starts)
                    p = bisect_left(starts, i)
                    jr_on = journal.enabled
                    underflow = False
                    # unlocked GIL-atomic reads of the shared entry dict;
                    # counters and LRU touches are flushed in one locked
                    # call when this pass ends (see MemoTable.flush_chunk)
                    entry_of = memo.entries.get
                    m_hits = 0
                    m_misses = 0
                    touched: list = []
                    touch = touched.append
                    while i < n_tok:
                        if p < n_starts and i == starts[p]:
                            p += 1
                            seq_id, span_len = span_at[i]
                            entry = entry_of((state, seq_id))
                            base = i
                            if entry is not None:
                                m_hits += 1
                                touch((state, seq_id))
                                if jr_on:
                                    journal.record(
                                        "memo_hit", chunk=index,
                                        offset=toks[base].offset,
                                        seq=seq_id, tokens=span_len)
                                for ek, sid, k, rd in entry.events:
                                    off = toks[base + k].offset
                                    append_ev(hit(sid, off, depth + rd)
                                              if ek == 0 else
                                              close(sid, off, depth + rd))
                                state = entry.exit_state
                                i = base + span_len
                                n_fast += span_len
                                while p < n_starts and starts[p] < i:
                                    p += 1
                                continue
                            # miss: execute the span, recording events
                            # relative to its start for future replays
                            m_misses += 1
                            if jr_on:
                                journal.record(
                                    "memo_miss", chunk=index,
                                    offset=toks[base].offset,
                                    seq=seq_id, tokens=span_len)
                            rel: list = []
                            rel_append = rel.append
                            d0 = depth
                            s0 = state
                            stop = base + span_len
                            skip0 = n_skip
                            while i < stop:
                                tok = toks[i]
                                kind = tok.kind
                                if kind == _START:
                                    push(state)
                                    depth += 1
                                    state = trans[state * S + sym_of(tok.name, other_sym)]
                                    if accept_flags[state]:
                                        off = tok.offset
                                        for sid in accepts[state]:
                                            append_ev(hit(sid, off, depth))
                                            rel_append((0, sid, i - base, depth - d0))
                                    elif state == dead:
                                        # a whole-element span closes it
                                        e, _ = _dead_end(kinds, i)
                                        state = pop()
                                        depth -= 1
                                        n_skip += e - i
                                        n_fast += e - i
                                        i = e
                                elif kind == _END:
                                    if not stack:
                                        # unreachable for a balanced span;
                                        # defensively hand the token to
                                        # the general loop unrecorded
                                        underflow = True
                                        break
                                    if close_flags[state]:
                                        off = tok.offset
                                        for sid in close_accepts[state]:
                                            append_ev(close(sid, off, depth))
                                            rel_append((1, sid, i - base, depth - d0))
                                    state = pop()
                                    depth -= 1
                                i += 1
                                n_fast += 1
                            if underflow:
                                break
                            if n_skip == skip0:
                                memo.insert(s0, seq_id, state, tuple(rel))
                            while p < n_starts and starts[p] < i:
                                p += 1
                            continue
                        tok = toks[i]
                        kind = tok.kind
                        if kind == _START:
                            push(state)
                            depth += 1
                            state = trans[state * S + sym_of(tok.name, other_sym)]
                            if accept_flags[state]:
                                off = tok.offset
                                extend(hit(sid, off, depth) for sid in accepts[state])
                            elif state == dead:
                                e, still_open = _dead_end(kinds, i)
                                if still_open:
                                    stack.extend([dead] * (still_open - 1))
                                    depth += still_open - 1
                                else:
                                    state = pop()
                                    depth -= 1
                                n_skip += e - i
                                n_fast += e - i
                                i = e
                                # spans inside the skipped element are gone
                                while p < n_starts and starts[p] <= e:
                                    p += 1
                        elif kind == _END:
                            if not stack:
                                break  # divergence: general loop takes this token
                            if close_flags[state]:
                                off = tok.offset
                                extend(close(sid, off, depth) for sid in close_accepts[state])
                            state = pop()
                            depth -= 1
                        i += 1
                        n_fast += 1
                    memo.flush_chunk(m_hits, m_misses, touched)
                    g.state = state
                    counters.stack_tokens += n_fast
                    counters.skipped_tokens += n_skip
                if i >= n_tok:
                    break

            ti = i
            i += 1
            kind = kinds[ti]

            if n_live == 0:
                if not speculative:
                    break  # non-speculative: no recovery inside the chunk
                if kind != _START:
                    continue  # wait for a start tag to revive at

            if kind == _START:
                sym = symmap[name_ids[ti]]
                offset = offsets[ti]
                if not never and (pending_check or always or n_live == 0):
                    self._start_tag_check(
                        cohorts, sym, names[name_ids[ti]], ti,
                        offset, depth, counters,
                    )
                    pending_check = False
                    n_live = sum(len(lc.groups) for lc in cohorts)
                    if n_live == 0:
                        depth += 1
                        continue
                depth += 1
                for lc in cohorts:
                    for g in lc.groups:
                        g.stack.append(g.state)
                        s2 = trans[g.state * S + sym]
                        g.state = s2
                        if accept_flags[s2]:
                            g.events.extend(hit(sid, offset, depth) for sid in accepts[s2])
                # pushes are injective in (state, stack): no merging needed

            elif kind == _END:
                tag = names[name_ids[ti]]
                sym = symmap[name_ids[ti]]
                offset = offsets[ti]
                for lc in cohorts:
                    if not lc.groups:
                        continue
                    if always:
                        row = end_rows[sym]
                        if row is not None:
                            kept = [g for g in lc.groups if row[g.state]]
                            counters.paths_eliminated += len(lc.groups) - len(kept)
                            lc.groups = kept
                            if not lc.groups:
                                continue
                    # cohort groups share their depth: all underflow or none
                    if lc.groups[0].stack:
                        for g in lc.groups:
                            ca = close_accepts[g.state]
                            if ca:
                                g.events.extend(close(sid, offset, depth) for sid in ca)
                            g.state = g.stack.pop()
                        lc.groups, converged = merge_groups(lc.groups)
                        counters.paths_converged += converged
                        if converged and journal.enabled:
                            journal.record("converge", chunk=index, offset=offset,
                                           merged=converged, live=len(lc.groups))
                    else:
                        self._diverge(lc, sym, tag, offset, depth, counters)
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
                        journal.record("switch", chunk=index, offset=offsets[ti],
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

    def run_from(
        self,
        tokens: TokenColumns | Iterable[Token],
        state: int,
        stack: list[int],
        counters: WorkCounters,
    ) -> tuple[int, list[int], list[MatchEvent]]:
        """Run ``tokens`` from the known configuration ``(state, stack)``.

        The sequential pushdown transducer of Definition 1: the
        single-stack loop alone, no path policy.  It serves the
        sequential baseline and the join's reprocessing.  Event depths
        count from ``len(stack)``; ``stack`` is not copied.  Returns the
        final ``(state, stack, events)`` and adds one ``stack_tokens``
        per row to ``counters``.  Non-column ``tokens`` are converted as
        at :meth:`run_chunk`'s entry.

        Raises :class:`~repro.transducer.mapping.StackUnderflow` at the
        offset of an END that arrives with an empty stack (malformed
        input), after counting the rows before it.
        """
        cols = as_columns(tokens)
        events: list[MatchEvent] = []
        i, state, _depth, skipped = self._stack_loop(
            cols, self._symbols(cols), 0, state, stack, events, len(stack))
        counters.stack_tokens += i
        counters.skipped_tokens += skipped
        if i < len(cols):
            raise StackUnderflow(cols.offsets[i])
        return state, stack, events

    def _run_exact(
        self,
        cols: TokenColumns,
        entry: tuple[int, tuple[int, ...]],
        result: ChunkResult,
    ) -> ChunkResult:
        """:meth:`run_chunk` from the chunk's exact entry configuration.

        The result keeps the mapping shape with one main cohort of one
        segment, keyed by the entry state.  Its ``restart_depth`` is
        the entry depth, since the events already carry absolute
        depths, and its entry's ``pushed`` holds the whole final stack
        (see :func:`~repro.transducer.mapping.join_exact`).
        """
        state0, stack0 = entry
        counters = result.counters
        counters.starting_paths = 1
        if self._journal.enabled:
            self._journal.record("path_spawn", chunk=result.index,
                                 offset=result.begin, reason="initial",
                                 **spawn_states_arg((state0,)))
        state, stack, events = self.run_from(cols, state0, list(stack0), counters)
        main = Cohort(restart_offset=result.begin, restart_depth=len(stack0))
        main.segments.append(Segment(
            entries={state0: SegmentEntry(events, state, tuple(stack))}))
        result.cohorts.append(main)
        counters.mapping_entries = 1
        return result

    # ------------------------------------------------------------------

    def _symbols(self, cols: TokenColumns) -> list[int] | dict[int, int]:
        """``symmap[name_ids[i]]``: row ``i``'s symbol, mapped once per run.

        Only the tags the tables intern are looked up, in the string
        table's tag index (each string appears once in the table); every
        other string, text runs and unqueried tags, keeps ``other_sym``.
        Only START/END rows read their symbol.
        """
        T = self.tables
        other_sym = T.other_sym
        names = cols.names
        if len(names) > len(cols):
            # a slice of a longer sequence's table (token-mode chunks, the
            # stream's seal buffer, a reprocessed range): map only the ids
            # it uses
            sym_of = T.sym_ids.get
            return {k: sym_of(names[k], other_sym) for k in set(cols.name_ids)}
        symmap = [other_sym] * len(names)
        get = cols.tag_ids().get
        for tag, sym in T.sym_ids.items():
            k = get(tag)
            if k is not None:
                symmap[k] = sym
        return symmap

    def _stack_loop(
        self,
        cols: TokenColumns,
        symmap,
        i: int,
        state: int,
        stack: list[int],
        events: list[MatchEvent],
        depth: int,
    ) -> tuple[int, int, int, int]:
        """The single-stack loop (Section 4.3) from row ``i`` of ``cols``.

        Runs to the end of the columns or to an END that arrives with an
        empty stack, which it leaves unconsumed (in a chunk, the next
        divergence).  Returns ``(i, state, depth, skipped)`` where it
        stopped; ``stack`` and ``events`` are updated in place.

        A START that enters the dead state opens an element nothing
        below can match: its rows up to its END are only counted
        (``skipped``), and the loop resumes after the END with the
        state the START pushed.  If the columns end inside, the stack
        holds ``dead`` once per element still open below the pushed
        state, as stepping every row would have left it.
        """
        T = self.tables
        trans = T.trans
        S = T.n_symbols
        accepts = T.accepts
        flags = T.start_flags
        dead = T.dead
        close_accepts = T.close_accepts
        close_flags = T.close_flags
        name_ids = cols.name_ids
        offsets = cols.offsets
        push = stack.append
        pop = stack.pop
        extend = events.extend
        # depth - len(stack) is constant in this loop: every push and pop
        # moves both, so the depth is derived only where an event needs it
        base = depth - len(stack)
        skipped = 0
        start, end = _START, _END
        last = len(cols.kinds) - 1
        rows = iter(cols.kinds[i:] if i else cols.kinds)
        for kind in rows:
            if kind == start:
                push(state)
                state = trans[state * S + symmap[name_ids[i]]]
                if flags[state]:
                    if state == dead:
                        # the element's rows: count opens and closes only
                        open_ = 1
                        for kind in rows:
                            if kind == start:
                                open_ += 1
                            elif kind == end:
                                open_ -= 1
                                if not open_:
                                    state = pop()
                                    break
                        else:
                            stack.extend([dead] * (open_ - 1))
                        # the row the skip stopped at: its END or the last
                        e = last - length_hint(rows)
                        skipped += e - i
                        i = e
                    else:
                        off = offsets[i]
                        d = base + len(stack)
                        extend(hit(sid, off, d) for sid in accepts[state])
            elif kind == end:
                if not stack:
                    break  # underflow: the caller takes this token
                if close_flags[state]:
                    off = offsets[i]
                    d = base + len(stack)
                    extend(close(sid, off, d) for sid in close_accepts[state])
                state = pop()
            i += 1
        return i, state, base + len(stack), skipped

    def _scenario1(self, kind: int, sym: int) -> tuple[int, ...] | None:
        """Elimination scenario 1: feasible states for a chunk's first token."""
        T = self.tables
        if not T.has_table or self.policy.eliminate == ELIMINATE_NEVER:
            return None
        if kind == _START:
            return T.start_sets[sym]
        if kind == _END:
            return T.end_sets[sym]
        return T.text_set

    def _start_tag_check(
        self,
        cohorts: list[_LiveCohort],
        sym: int,
        tag: str,
        token_index: int,
        offset: int,
        depth: int,
        counters: WorkCounters,
    ) -> None:
        """Elimination scenario 3 (and speculative path revival)."""
        policy = self.policy
        T = self.tables
        row = T.start_rows[sym]
        if row is None:
            if policy.table_based:
                counters.degraded_lookups += 1
            return
        live_states: set[int] = set()
        eliminated = 0
        for lc in cohorts:
            kept = [g for g in lc.groups if row[g.state]]
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
            missing = [s for s in T.start_sets[sym] if s not in live_states]
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

    def _diverge(
        self,
        lc: _LiveCohort,
        sym: int,
        tag: str,
        offset: int,
        depth: int,
        counters: WorkCounters,
    ) -> None:
        """Underflow pop: close the segment, reopen keyed by candidates."""
        policy = self.policy
        T = self.tables
        counters.divergences += 1

        groups = lc.groups
        # elimination scenario 2: the current state must be feasible
        # immediately before this end tag
        if policy.eliminate != ELIMINATE_NEVER:
            row = T.end_rows[sym]
            if row is None:
                if policy.table_based:
                    counters.degraded_lookups += 1
            else:
                kept = [g for g in groups if row[g.state]]
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

        close_accepts = T.close_accepts
        for g in groups:
            ca = close_accepts[g.state]
            if ca:
                g.events.extend(close(sid, offset, depth) for sid in ca)

        lc.cohort.segments.append(
            Segment(entries=segment_entries(groups, final=False), end_tag=tag, end_offset=offset)
        )

        candidates = self._pop_candidates(sym)
        if candidates is None:
            candidates = T.all_states
            if policy.table_based:
                counters.degraded_lookups += 1
        lc.groups = [PathGroup.fresh(v) for v in candidates]
        if self._journal.enabled:
            self._journal.record("path_spawn", chunk=self._chunk, offset=offset,
                                 tag=tag, reason="divergence",
                                 **spawn_states_arg(candidates))

    def _pop_candidates(self, sym: int) -> tuple[int, ...] | None:
        """Possible values an underflow pop of ``sym`` produces: the states
        feasible before its START (rows are pre-sorted)."""
        T = self.tables
        if not T.has_table or self.policy.eliminate == ELIMINATE_NEVER:
            return None
        return T.start_sets[sym]
