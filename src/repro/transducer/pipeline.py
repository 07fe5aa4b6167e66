"""The three-phase parallel pipeline: split → parallel → join.

This module glues the substrates together into the structure of
Section 2.3:

1. **split** — cut the document into tag-aligned chunks
   (:mod:`repro.xmlstream.chunking`);
2. **parallel** — run the chunk kernel (:class:`repro.core.kernel.DenseRunner`)
   on every chunk through an execution backend; chunk 0 starts from
   the known initial configuration, the rest from whatever the policy
   allows;
3. **join** — link the chunk mappings in document order
   (:mod:`repro.transducer.mapping`), reprocessing misspeculated
   ranges with the sequential transducer
   (:meth:`repro.core.kernel.DenseRunner.run_from`, through
   :func:`reprocess_range`).

With a :class:`~repro.transducer.policies.BaselinePolicy` this *is*
the PP-Transducer (Ogden et al., VLDB'13); with the GAP policies from
:mod:`repro.core` it is the GAP transducer.  The convenience wrapper
:func:`run_pp_transducer` instantiates the former.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import partial

from ..obs.journal import Journal, NULL_JOURNAL
from ..obs.tracer import NULL_TRACER, Tracer
from ..parallel.backend import Backend, SerialBackend
from ..parallel.faults import FaultPlane, NO_FAULTS, apply_faults, parse_fault_spec
from ..parallel.resilience import ResilienceReport, RetryPolicy, supervised_map
from ..xpath.automaton import QueryAutomaton
from ..xpath.events import MatchEvent
from ..xmlstream.chunking import Chunk, split_chunks
from ..xmlstream.lexer import lex_range, lex_windows
from ..xmlstream.tokens import TokenColumns, TokenKind
from .counters import WorkCounters
from .mapping import ChunkResult, join_results
from .policies import BaselinePolicy, PathPolicy

__all__ = [
    "ParallelRunResult",
    "ParallelPipeline",
    "reprocess_range",
    "run_pp_transducer",
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
    """Shared worker context (pickled once per worker by ProcessBackend)."""

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
    #: precompiled kernel tables (:class:`repro.xpath.compile_tables.KernelTables`)
    #: — typed loosely to keep this module import-free of :mod:`repro.core`
    tables: object = None
    #: structural-repetition memoization for the kernel: workers
    #: resolve the shared per-tables :class:`repro.xpath.subseq.MemoTable`
    #: from their process-local registry (the table itself holds a lock
    #: and is not shipped)
    memo: bool = False
    #: pre-lexed :class:`~repro.xmlstream.tokens.TokenColumns`, one per
    #: chunk index — a serving-layer cache (the document registry lexes
    #: once per document); ``None`` keeps the lex-in-worker path
    pretokens: tuple | None = None
    #: stack-sampling rate in Hz (0 = off): each worker samples its own
    #: thread while it executes the chunk and ships the collapsed-stack
    #: profile back in ``ChunkResult.samples`` (same transport as spans)
    sample: float = 0.0


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
    own (``lex_range``) or a longer run (a token-mode document, a
    sealed stream chunk), cut by offset.  ``skip_end`` drops a leading
    END at exactly ``begin``, a divergence the join already resolved.
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
    """Worker body: lex and execute one chunk (module-level: picklable).

    With ``ctx.sample`` set, a per-chunk stack sampler watches *this*
    worker thread for the duration and the collapsed profile rides back
    in ``ChunkResult.samples`` — the only profiler transport that
    crosses a process-pool boundary.
    """
    if ctx.sample > 0:
        import threading

        from ..obs.sampler import StackSampler

        sampler = StackSampler(interval=1.0 / ctx.sample,
                               only_ident=threading.get_ident())
        sampler.start()
        try:
            result = _run_one_chunk_body(ctx, chunk, attempt)
        finally:
            sampler.stop()
        result.samples = sampler.profile.to_dict()
        return result
    return _run_one_chunk_body(ctx, chunk, attempt)


def _run_one_chunk_body(ctx: _Ctx, chunk: Chunk, attempt: int = 0) -> ChunkResult:
    corrupt = apply_faults(ctx.faults, chunk.index, attempt)
    runner = _make_runner(ctx.automaton, ctx.policy, ctx.anchor_sids, ctx.tables,
                          memo=ctx.memo)
    start = frozenset((ctx.automaton.initial,)) if chunk.index == 0 else None
    jr = Journal() if ctx.journal else NULL_JOURNAL
    if not ctx.trace:
        if ctx.pretokens is not None:
            tokens = ctx.pretokens[chunk.index]
        else:
            tokens = lex_range(ctx.text, chunk.begin, chunk.end)
        result = runner.run_chunk(
            tokens, chunk.index, chunk.begin, chunk.end,
            start_states=start, journal=jr,
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
            start_states=start, journal=jr,
        )
        _snapshot_chunk_counters(sp, result.counters)
    result.spans = tracer.spans
    if jr.enabled:
        result.journal = list(jr.events)
    return _corrupt_result(result) if corrupt else result


def _run_one_chunk_attempt(ctx: _Ctx, work: tuple[Chunk, int]) -> ChunkResult:
    """Supervised worker body: ``work`` carries the attempt number.

    The attempt rides with the item (rather than living in driver-side
    state) so fault rules keyed on it behave identically in-process and
    across a process pool's pickling boundary.
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
        sample: float = 0.0,
        profile=None,
    ) -> None:
        if sample < 0:
            raise ValueError(f"sample rate must be >= 0 Hz, got {sample}")
        self.automaton = automaton
        self.policy = policy
        self.anchor_sids = anchor_sids
        self.backend = backend or SerialBackend()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.resilience = resilience
        self.faults = parse_fault_spec(faults) if isinstance(faults, str) else faults
        self.journal = journal if journal is not None else NULL_JOURNAL
        # stack-sampling rate (Hz); the accumulated profile may be
        # caller-owned (engines construct a GAP pipeline per run and
        # share one profile across them) — repeated runs aggregate
        self.sample = float(sample)
        self.profile = profile
        if self.sample > 0 and self.profile is None:
            from ..obs.sampler import SampleProfile

            self.profile = SampleProfile()
        # compile once per pipeline through the structural cache
        from ..core.kernel import tables_for_policy

        with self.tracer.span("xpath.compile", cat="phase"):
            self._tables = tables_for_policy(
                automaton, policy, anchor_sids, journal=self.journal
            )
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
        subsystem evaluates each sealed chunk with exactly this runner
        so its counters stay byte-identical to a batch run.
        """
        return _make_runner(self.automaton, self.policy, self.anchor_sids,
                            self._tables, memo=self.memo)

    def run_tokens(self, tokens: TokenColumns, n_chunks: int,
                   edges: list[int] | None = None) -> ParallelRunResult:
        """Execute the three phases over a materialised token sequence.

        The token-mode pipeline serves inputs that are not
        chunk-lexable text — JSON documents tokenised by
        :mod:`repro.jsonstream` — by splitting the token columns into
        contiguous chunks.  Token offsets must be non-decreasing (the
        JSON tokeniser guarantees this); reprocessing cuts the columns
        by offset.  Tokenisation itself is a sequential
        preprocessing step in this mode (parallel JSON lexing is its
        own research problem and out of scope).

        ``edges`` overrides the boundary computation with an explicit
        sorted edge list (``[0, …, len(tokens)]``, interior cuts on
        strictly-increasing offsets) — the stream-vs-batch differential
        uses it to replay a stream's sealed chunk boundaries.
        """
        if not tokens:
            return ParallelRunResult(
                events=[], final_state=self.automaton.initial, counters=WorkCounters()
            )
        offsets = tokens.offsets
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ValueError(
                "token-mode execution requires non-decreasing offsets"
            )
        end_sentinel = offsets[-1] + 1
        if edges is None:
            # chunk boundaries must fall on strictly-increasing offsets
            # so that offset-based reprocess slicing is unambiguous (a
            # wrapper START and its scalar TEXT may share an offset)
            cuts_set = set()
            for k in range(1, n_chunks):
                cut = len(tokens) * k // n_chunks
                while 0 < cut < len(tokens) and offsets[cut] == offsets[cut - 1]:
                    cut += 1
                if 0 < cut < len(tokens):
                    cuts_set.add(cut)
            cuts = sorted(cuts_set)
            edges = [0, *cuts, len(tokens)]
        else:
            if edges[0] != 0 or edges[-1] != len(tokens) or \
                    any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError("edges must be sorted, 0-led and end at len(tokens)")
            for cut in edges[1:-1]:
                if offsets[cut] == offsets[cut - 1]:
                    raise ValueError(
                        f"edge {cut} does not fall on a strictly-increasing offset"
                    )

        tracer = self.tracer
        journal = self.journal
        runner = self.chunk_runner()
        sampler = None
        if self.sample > 0:
            # token-mode execution is serial in this thread, so one
            # sampler over the whole chunk loop covers it
            import threading

            from ..obs.sampler import StackSampler

            sampler = StackSampler(profile=self.profile,
                                   interval=1.0 / self.sample,
                                   only_ident=threading.get_ident()).start()
        results: list[ChunkResult] = []
        try:
            for ci, (i0, i1) in enumerate(zip(edges, edges[1:])):
                begin = offsets[i0]
                end = offsets[i1] if i1 < len(tokens) else end_sentinel
                start = frozenset((self.automaton.initial,)) if ci == 0 else None
                with tracer.span("core.kernel", cat="chunk", chunk=ci) as sp:
                    r = runner.run_chunk(
                        tokens[i0:i1], ci, begin, end, start_states=start, journal=journal
                    )
                    if tracer.enabled:
                        _snapshot_chunk_counters(sp, r.counters)
                results.append(r)
        finally:
            if sampler is not None:
                sampler.stop()

        totals = WorkCounters()
        per_chunk: list[WorkCounters] = []
        for r in results:
            per_chunk.append(r.counters)
            totals.merge(r.counters)

        reprocess = partial(reprocess_range, runner, tokens,
                            tracer=tracer, journal=journal)

        strict = not self.policy.speculative
        with tracer.span("transducer.mapping", cat="phase") as sp:
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

    def run(
        self,
        text: str,
        n_chunks: int,
        chunks: list[Chunk] | None = None,
        chunk_tokens: tuple | None = None,
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
        """
        tracer = self.tracer
        journal = self.journal
        if chunk_tokens is not None:
            if chunks is None:
                raise ValueError("chunk_tokens requires a matching chunks list")
            if len(chunk_tokens) != len(chunks):
                raise ValueError(
                    f"chunk_tokens/chunks length mismatch "
                    f"({len(chunk_tokens)} != {len(chunks)})"
                )
        with tracer.span("xmlstream.split", cat="phase") as sp:
            if chunks is None:
                chunks = split_chunks(text, n_chunks)
            sp.args["n_chunks"] = len(chunks)
        ctx = _Ctx(text, self.automaton, self.policy, self.anchor_sids,
                   trace=tracer.enabled, journal=journal.enabled,
                   faults=self.faults, tables=self._tables,
                   pretokens=chunk_tokens, memo=self.memo,
                   sample=self.sample)
        report: ResilienceReport | None = None
        with tracer.span("parallel.backend", cat="phase"):
            if self.resilience is not None:
                fallback_ctx = replace(ctx, faults=NO_FAULTS)
                results, report = supervised_map(
                    self.backend, ctx, _run_one_chunk_attempt, chunks,
                    self.resilience,
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
            if r.samples and self.profile is not None:
                self.profile.merge(r.samples)
        if report is not None:
            totals.retries += report.retries
            totals.timeouts += report.timeouts
            totals.fallbacks += report.fallbacks

        def reprocess(begin: int, end: int, state: int, stack: list[int],
                      skip_end: bool):
            return reprocess_range(self.chunk_runner(), lex_range(text, begin, end),
                                   begin, end, state, stack, skip_end, tracer, journal)

        # supervision relaxes the strict join: an incomplete mapping is
        # then recovered by targeted reprocessing (the speculative
        # machinery) rather than failing the whole run
        strict = not self.policy.speculative and self.resilience is None
        with tracer.span("transducer.mapping", cat="phase") as sp:
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


def run_pp_transducer(
    text: str,
    automaton: QueryAutomaton,
    anchor_sids: frozenset[int] = frozenset(),
    n_chunks: int = 4,
    backend: Backend | None = None,
) -> ParallelRunResult:
    """Run the PP-Transducer baseline (Ogden et al., VLDB'13)."""
    policy = BaselinePolicy(automaton)
    pipeline = ParallelPipeline(automaton, policy, anchor_sids, backend)
    return pipeline.run(text, n_chunks)


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
