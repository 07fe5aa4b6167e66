"""The three-phase parallel pipeline: split → parallel → join.

This module glues the substrates together into the structure of
Section 2.3:

1. **split** — cut the document into tag-aligned chunks
   (:mod:`repro.xmlstream.chunking`), or cut pre-tokenised input (a
   JSON document's columns) into contiguous column slices;
2. **parallel** — run the chunk kernel (:class:`repro.core.kernel.DenseRunner`)
   on every chunk through an execution backend, or under supervision
   (:func:`repro.parallel.resilience.supervised_map`); chunk 0 starts
   from the known initial configuration, the rest from whatever the
   policy allows — or, when each chunk's open-element path is known (a
   registered document), every chunk from its exact configuration;
3. **join** — link the chunk mappings in document order
   (:mod:`repro.transducer.mapping`), reprocessing misspeculated
   ranges with the sequential transducer
   (:meth:`repro.core.kernel.DenseRunner.run_from`, through
   :func:`reprocess_range`); exact chunks are concatenated.

Text (:meth:`ParallelPipeline.run`) and token input
(:meth:`ParallelPipeline.run_tokens`) differ only in the split: phases
2 and 3 are one method for both, and the one value that differs there
is the columns a misspeculated range re-runs over.

With a :class:`~repro.transducer.policies.BaselinePolicy` this *is*
the PP-Transducer (Ogden et al., VLDB'13); with the GAP policies from
:mod:`repro.core` it is the GAP transducer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace

from ..obs.journal import Journal, NULL_JOURNAL
from ..obs.tracer import NULL_TRACER, Tracer
from ..parallel.backend import Backend, SerialBackend
from ..parallel.faults import FaultPlane, NO_FAULTS, apply_faults, parse_fault_spec
from ..parallel.resilience import ResilienceReport, RetryPolicy, supervised_map
from ..xpath.automaton import QueryAutomaton
from ..xpath.compile_tables import KernelTables
from ..xpath.events import MatchEvent
from ..xmlstream.chunking import Chunk, split_chunks, split_tokens
from ..xmlstream.lexer import lex_range, lex_windows
from ..xmlstream.tokens import TokenColumns, TokenKind
from .counters import WorkCounters
from .mapping import ChunkResult, join_exact, join_results
from .policies import BaselinePolicy, PathPolicy

__all__ = [
    "ParallelRunResult",
    "ParallelPipeline",
    "reprocess_range",
    "run_sequential_pipeline",
    "run_sequential_windows",
]

@dataclass(slots=True)
class ParallelRunResult:
    """Everything a benchmark needs from one parallel run."""

    events: list[MatchEvent]
    final_state: int
    counters: WorkCounters
    chunk_counters: list[WorkCounters] = field(default_factory=list)

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_counters)


@dataclass(frozen=True, slots=True)
class _Ctx:
    """Shared worker context: one per run, read by every chunk task."""

    text: str
    automaton: QueryAutomaton
    policy: PathPolicy
    anchor_sids: frozenset[int]
    #: record per-worker spans (lex + chunk) and ship them back in the
    #: ChunkResult; False keeps the untraced path byte-for-byte intact
    trace: bool = False
    #: record per-worker journal events and ship them back in the
    #: ChunkResult (same transport as spans)
    journal: bool = False
    #: fault-injection plane applied inside the worker body; ``None``
    #: still honours ``REPRO_FAULTS``, ``NO_FAULTS`` disables injection
    #: entirely (the resilience fallback runs with the latter)
    faults: FaultPlane | None = None
    #: precompiled kernel tables
    tables: KernelTables | None = None
    #: structural-repetition memoization for the kernel: workers
    #: resolve the shared per-tables :class:`repro.xpath.subseq.MemoTable`
    #: from the registry (the table itself holds a lock)
    memo: bool = False
    #: pre-lexed :class:`~repro.xmlstream.tokens.TokenColumns`, one per
    #: chunk index — a serving-layer cache (the document registry lexes
    #: once per document); ``None`` keeps the lex-in-worker path
    pretokens: tuple | None = None
    #: exact entry configurations ``(state, stack)``, one per chunk
    #: index, for a document whose open-element paths are known (the
    #: registry records them); ``None`` runs the policy's parallel phase
    entries: tuple | None = None


def _make_runner(automaton, policy, anchor_sids, tables, memo=False):
    """Instantiate the chunk kernel over precompiled tables."""
    # deferred import: repro.core imports this module at load time
    from ..core.kernel import DenseRunner

    memo_table = None
    if memo:
        from ..xpath.subseq import memo_for_tables

        memo_table = memo_for_tables(tables)
    return DenseRunner(automaton, policy, anchor_sids, tables=tables,
                       memo=memo_table)


def reprocess_range(
    runner,
    tokens: TokenColumns,
    begin: int,
    end: int,
    state: int,
    stack: list[int],
    skip_end: bool,
    tracer: Tracer = NULL_TRACER,
    journal: Journal = NULL_JOURNAL,
) -> tuple[int, list[int], list[MatchEvent], int]:
    """The join's reprocess callback (:data:`~repro.transducer.mapping.ReprocessFn`)
    once ``runner`` and ``tokens`` are bound: rerun the rows in
    ``[begin, end)`` from ``(state, stack)`` through ``runner.run_from``.

    ``tokens`` are columns with sorted offsets covering the range: its
    own (``lex_range``) or a longer run (a token-mode document), cut by
    offset.  ``skip_end`` drops a leading END at exactly ``begin``, a
    divergence the join already resolved.
    """
    with tracer.span("transducer.mapping", cat="phase", reprocess=True) as sp:
        offsets = tokens.offsets
        lo = bisect_left(offsets, begin)
        hi = bisect_left(offsets, end)
        if (skip_end and lo < hi and offsets[lo] == begin
                and tokens.kinds[lo] == TokenKind.END):
            lo += 1
        counters = WorkCounters()
        state, stack, events = runner.run_from(
            tokens[lo:hi], state, stack, counters)
        n = counters.stack_tokens
        sp.args.update(begin=begin, end=end, tokens=n)
    if journal.enabled:
        journal.record("reprocess", offset=begin, begin=begin, end=end,
                       tokens=n)
    return state, stack, events, n


def _run_one_chunk(ctx: _Ctx, chunk: Chunk, attempt: int = 0) -> ChunkResult:
    """Worker body: lex and execute one chunk."""
    corrupt = apply_faults(ctx.faults, chunk.index, attempt)
    runner = _make_runner(ctx.automaton, ctx.policy, ctx.anchor_sids, ctx.tables,
                          memo=ctx.memo)
    start = frozenset((ctx.automaton.initial,)) if chunk.index == 0 else None
    entry = ctx.entries[chunk.index] if ctx.entries is not None else None
    jr = Journal() if ctx.journal else NULL_JOURNAL
    if not ctx.trace:
        if ctx.pretokens is not None:
            tokens = ctx.pretokens[chunk.index]
        else:
            tokens = lex_range(ctx.text, chunk.begin, chunk.end)
        result = runner.run_chunk(
            tokens, chunk.index, chunk.begin, chunk.end,
            start_states=start, journal=jr, entry=entry,
        )
        if jr.enabled:
            result.journal = list(jr.events)
        return _corrupt_result(result) if corrupt else result

    # traced path: one lane per worker; the lex span measures
    # tokenisation separately from transduction (pre-lexed chunks skip
    # that span — there is nothing to measure, and the span machinery
    # would charge the traced path a phantom cost the untraced path
    # never pays)
    tracer = Tracer(tid=chunk.index + 1)
    with tracer.span("core.kernel", cat="chunk", chunk=chunk.index) as sp:
        if ctx.pretokens is not None:
            tokens = ctx.pretokens[chunk.index]
        else:
            with tracer.span("xmlstream.lex", cat="chunk") as lex_sp:
                tokens = lex_range(ctx.text, chunk.begin, chunk.end)
                lex_sp.args["tokens"] = len(tokens)
        result = runner.run_chunk(
            tokens, chunk.index, chunk.begin, chunk.end,
            start_states=start, journal=jr, entry=entry,
        )
        _snapshot_chunk_counters(sp, result.counters)
    result.spans = tracer.spans
    if jr.enabled:
        result.journal = list(jr.events)
    return _corrupt_result(result) if corrupt else result


def _run_one_chunk_attempt(ctx: _Ctx, work: tuple[Chunk, int]) -> ChunkResult:
    """Supervised worker body: ``work`` carries the attempt number.

    The attempt rides with the item rather than living in driver-side
    state, so fault rules keyed on it see the attempt each task runs.
    """
    chunk, attempt = work
    return _run_one_chunk(ctx, chunk, attempt)


def _corrupt_result(result: ChunkResult) -> ChunkResult:
    """Mangle a chunk result the way a ``corrupt`` fault promises.

    The damage is chosen to be *detectable* by
    :func:`_validate_chunk_result` — a wrong chunk identity and a
    missing mapping — mimicking a worker that replied out of protocol.
    """
    result.index = -result.index - 1
    result.cohorts = []
    return result


def _validate_chunk_result(result: object, chunk: Chunk) -> str | None:
    """Mapping-completeness check for one chunk result (``None`` = ok)."""
    if not isinstance(result, ChunkResult):
        return f"expected a ChunkResult, got {type(result).__name__}"
    if result.index != chunk.index:
        return f"chunk index mismatch (got {result.index}, expected {chunk.index})"
    if (result.begin, result.end) != (chunk.begin, chunk.end):
        return (f"chunk range mismatch (got [{result.begin}, {result.end}), "
                f"expected [{chunk.begin}, {chunk.end}))")
    if result.main is None:
        return "result carries no main cohort (empty mapping)"
    return None


def _snapshot_chunk_counters(span, counters: WorkCounters) -> None:
    """Attach the per-chunk counter snapshot a timeline row needs."""
    span.args.update(
        tokens=counters.total_tokens,
        switches=counters.switches,
        starting_paths=counters.starting_paths,
        divergences=counters.divergences,
        paths_eliminated=counters.paths_eliminated,
    )


class ParallelPipeline:
    """Reusable split/parallel/join driver for one automaton + policy.

    ``resilience`` turns on chunk-level supervision of the parallel
    phase (per-attempt timeout, bounded retry with backoff, serial
    fallback — see :mod:`repro.parallel.resilience`); ``faults`` is a
    :class:`~repro.parallel.faults.FaultPlane` (or spec string) injected
    into the chunk workers.  With supervision on, the join also accepts
    an incomplete mapping by falling back to the selective-reprocessing
    recovery path instead of raising, so a degraded chunk costs
    re-execution of (at most) itself, never its siblings.

    The policy must compile to kernel tables
    (:func:`repro.core.kernel.tables_for_policy`); any other raises
    :class:`repro.core.engine.EngineError` here, at construction.
    ``tables`` hands in the policy's tables compiled beforehand (an
    engine that keeps them): the pipeline then compiles nothing.
    """

    def __init__(
        self,
        automaton: QueryAutomaton,
        policy: PathPolicy,
        anchor_sids: frozenset[int] = frozenset(),
        backend: Backend | None = None,
        tracer: Tracer | None = None,
        resilience: RetryPolicy | None = None,
        faults: FaultPlane | str | None = None,
        journal: Journal | None = None,
        memo: bool = False,
        tables: KernelTables | None = None,
    ) -> None:
        self.automaton = automaton
        self.policy = policy
        self.anchor_sids = anchor_sids
        self.backend = backend or SerialBackend()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.resilience = resilience
        self.faults = parse_fault_spec(faults) if isinstance(faults, str) else faults
        self.journal = journal if journal is not None else NULL_JOURNAL
        if tables is None:
            # compile once per pipeline through the structural cache
            from ..core.kernel import tables_for_policy

            with self.tracer.span("xpath.compile", cat="phase"):
                tables = tables_for_policy(
                    automaton, policy, anchor_sids, journal=self.journal
                )
        self._tables = tables
        # structural-repetition memoization (opt-in; observationally
        # identical to memo-off — see :mod:`repro.xpath.subseq`).  Off
        # by default: its planning costs more than the kernel time it
        # saves, and its tables keep ~1M objects alive for the GC to walk
        self.memo = bool(memo)

    def _persist_memo(self) -> None:
        """Write the memo through to the artifact store when warranted."""
        if self.memo:
            from ..xpath.subseq import maybe_persist_memo

            maybe_persist_memo(self._tables)

    def chunk_runner(self):
        """The chunk executor this pipeline's memo config selects.

        Exposed for callers that drive chunks one at a time instead of
        through :meth:`run`/:meth:`run_tokens` — the streaming
        subsystem runs each sealed chunk from its carried configuration
        with the runner of an exact pipeline
        (``GapEngine._pipeline(exact=True)``), so its counters equal an
        exact-entry batch run's.
        """
        return _make_runner(self.automaton, self.policy, self.anchor_sids,
                            self._tables, memo=self.memo)

    def _entries(self, chunk_paths) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Each chunk's exact ``(state, stack)``: its open-element path
        stepped through the transition table from the initial state."""
        T = self._tables
        trans, S = T.trans, T.n_symbols
        sym_of, other = T.sym_ids.get, T.other_sym
        entries = []
        for path in chunk_paths:
            state = self.automaton.initial
            stack = []
            for name in path:
                stack.append(state)
                state = trans[state * S + sym_of(name, other)]
            entries.append((state, tuple(stack)))
        return tuple(entries)

    def run_tokens(self, tokens: TokenColumns, n_chunks: int) -> ParallelRunResult:
        """Execute the three phases over a materialised token sequence.

        The token-mode pipeline serves inputs that are not
        chunk-lexable text — JSON documents tokenised by
        :mod:`repro.jsonstream` — by cutting the token columns into
        contiguous chunks (:func:`~repro.xmlstream.chunking.split_tokens`,
        the cut a registered JSON document keeps), each handed to the
        workers pre-lexed; from
        there it is :meth:`run`'s parallel phase and join, with the
        same backend, supervision and fault plane.  Token offsets must
        be non-decreasing (the JSON tokeniser guarantees this); a
        misspeculated range re-runs over the document's own columns,
        cut by offset.  Tokenisation itself is a sequential
        preprocessing step in this mode (parallel JSON lexing is its
        own research problem and out of scope).
        """
        chunks, columns = split_tokens(tokens, n_chunks)
        return self._drive("", chunks, columns, None, tokens)

    def run(
        self,
        text: str,
        n_chunks: int,
        chunks: list[Chunk] | None = None,
        chunk_tokens: tuple | None = None,
        chunk_paths: tuple | None = None,
    ) -> ParallelRunResult:
        """Execute the three phases over ``text`` with ``n_chunks`` workers.

        ``chunks`` skips the split phase with a precomputed tag-aligned
        chunk list, and ``chunk_tokens`` (one
        :class:`~repro.xmlstream.tokens.TokenColumns` per chunk, same
        order) skips per-worker lexing — the serving layer's
        per-document cache (:mod:`repro.service.registry`) prepares
        both once per ingested document.  Results are identical to the
        uncached path: the chunk list is what :func:`split_chunks`
        returns and the columns are what workers would lex.

        ``chunk_paths`` (one tuple of open tag names per chunk, as
        :func:`repro.store.docprep.prepare_xml` records them) gives
        every chunk its exact entry configuration: each chunk then runs
        the sequential loop from there (:meth:`DenseRunner.run_chunk`
        with ``entry``) and the join is concatenation
        (:func:`~repro.transducer.mapping.join_exact`).  The policy's
        feasibility rows are not read.
        """
        for name, per_chunk in (("chunk_tokens", chunk_tokens),
                                ("chunk_paths", chunk_paths)):
            if per_chunk is None:
                continue
            if chunks is None:
                raise ValueError(f"{name} requires a matching chunks list")
            if len(per_chunk) != len(chunks):
                raise ValueError(
                    f"{name}/chunks length mismatch "
                    f"({len(per_chunk)} != {len(chunks)})"
                )
        entries = self._entries(chunk_paths) if chunk_paths is not None else None
        with self.tracer.span("xmlstream.split", cat="phase") as sp:
            if chunks is None:
                chunks = split_chunks(text, n_chunks)
            sp.args["n_chunks"] = len(chunks)
        return self._drive(text, chunks, chunk_tokens, entries, None)

    def _drive(
        self,
        text: str,
        chunks: list[Chunk],
        chunk_tokens: tuple | None,
        entries: tuple | None,
        document: TokenColumns | None,
    ) -> ParallelRunResult:
        """The parallel phase and the join over framed chunks.

        Each chunk runs from ``chunk_tokens`` (or lexes its range of
        ``text``) and, with ``entries``, from its exact configuration.
        ``document`` is the columns a misspeculated range re-runs over;
        ``None`` lexes the range from ``text``.
        """
        tracer = self.tracer
        journal = self.journal
        ctx = _Ctx(text, self.automaton, self.policy, self.anchor_sids,
                   trace=tracer.enabled, journal=journal.enabled,
                   faults=self.faults, tables=self._tables,
                   pretokens=chunk_tokens, memo=self.memo, entries=entries)
        report: ResilienceReport | None = None
        with tracer.span("parallel.backend", cat="phase"):
            if self.resilience is not None:
                fallback_ctx = replace(ctx, faults=NO_FAULTS)
                results, report = supervised_map(
                    ctx, _run_one_chunk_attempt, chunks, self.resilience,
                    validate=_validate_chunk_result,
                    fallback=lambda chunk: _run_one_chunk(fallback_ctx, chunk),
                    tracer=tracer,
                    journal=journal,
                )
            else:
                results = self.backend.map_with_context(ctx, _run_one_chunk, chunks)

        totals = WorkCounters()
        per_chunk: list[WorkCounters] = []
        # results arrive in chunk order whatever the backend, so adopting
        # each chunk's journal here yields one deterministic event stream
        for r in results:
            per_chunk.append(r.counters)
            totals.merge(r.counters)
            if r.spans:
                tracer.extend(r.spans)
            if r.journal:
                journal.adopt(r.journal)
        if report is not None:
            totals.retries += report.retries
            totals.timeouts += report.timeouts
            totals.fallbacks += report.fallbacks

        def reprocess(begin: int, end: int, state: int, stack: list[int],
                      skip_end: bool):
            tokens = lex_range(text, begin, end) if document is None else document
            return reprocess_range(self.chunk_runner(), tokens,
                                   begin, end, state, stack, skip_end, tracer, journal)

        # supervision relaxes the strict join: an incomplete mapping is
        # then recovered by targeted reprocessing (the speculative
        # machinery) rather than failing the whole run
        strict = not self.policy.speculative and self.resilience is None
        with tracer.span("transducer.mapping", cat="phase") as sp:
            if entries is not None:
                state, _stack, events = join_exact(
                    (self.automaton.initial, ()), results, totals)
            else:
                state, _stack, events = join_results(
                    (self.automaton.initial, [], []), results, reprocess, totals,
                    strict=strict, journal=journal,
                )
            sp.args.update(
                misspeculations=totals.misspeculations,
                reprocessed_tokens=totals.reprocessed_tokens,
            )
        self._persist_memo()
        return ParallelRunResult(
            events=events, final_state=state, counters=totals, chunk_counters=per_chunk
        )


def run_sequential_pipeline(
    text: str,
    automaton: QueryAutomaton,
    anchor_sids: frozenset[int] = frozenset(),
) -> ParallelRunResult:
    """Run the plain sequential transducer (the speedup baseline).

    The text is lexed window by window
    (:func:`~repro.xmlstream.lexer.lex_windows`), so memory stays
    bounded by one window plus the document depth.
    """
    counters = WorkCounters(chunks=1, bytes_lexed=len(text), starting_paths=1)
    return run_sequential_windows(automaton, anchor_sids, lex_windows(text),
                                  counters)


def run_sequential_windows(
    automaton: QueryAutomaton,
    anchor_sids: frozenset[int],
    windows,
    counters: WorkCounters,
) -> ParallelRunResult:
    """Run the sequential transducer over consecutive token batches.

    Each batch runs from the configuration the previous one ended in.
    ``run_from`` reads only the transition and accept tables, which
    every policy compiles alike: the baseline's are used.
    """
    from ..core.kernel import tables_for_policy

    policy = BaselinePolicy(automaton)
    runner = _make_runner(automaton, policy, anchor_sids,
                          tables_for_policy(automaton, policy, anchor_sids))
    state = automaton.initial
    stack: list[int] = []
    events: list[MatchEvent] = []
    for tokens in windows:
        state, stack, more = runner.run_from(tokens, state, stack, counters)
        events += more
    return ParallelRunResult(events=events, final_state=state,
                             counters=counters, chunk_counters=[counters])
