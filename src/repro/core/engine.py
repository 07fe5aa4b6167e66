"""Public query engines — the library's main entry points.

Three engines share one interface (compile queries once, ``run`` over
any number of documents):

* :class:`SequentialEngine` — the single-threaded PDT, the speedup
  baseline;
* :class:`PPTransducerEngine` — the PP-Transducer (Ogden et al.,
  VLDB'13) parallel baseline;
* :class:`GapEngine` — the paper's contribution, in non-speculative or
  speculative mode.

Typical use::

    from repro import GapEngine

    engine = GapEngine(["/dblp/article/author", "//inproceedings//title"],
                       grammar=dtd_text)          # non-speculative
    result = engine.run(xml_text, n_chunks=20)
    result.matches["/dblp/article/author"]        # list of offsets

    engine = GapEngine(["/feed/entry/id"])        # no grammar: speculative
    engine.learn(yesterdays_feed)                 # Algorithm 3
    result = engine.run(todays_feed, n_chunks=20)

Matches are the offsets (in code points) of the matched elements' start
tags;
:func:`element_at` turns an offset back into tag name and text content
when the caller wants values rather than positions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass

from ..grammar.dtd_parser import parse_dtd
from ..grammar.model import Grammar
from ..grammar.xsd_parser import is_xsd, parse_xsd
from ..grammar.syntax_tree import StaticSyntaxTree, build_syntax_tree
from ..obs.journal import Journal, NULL_JOURNAL
from ..obs.tracer import NULL_TRACER, Tracer
from ..parallel.backend import Backend, get_backend
from ..parallel.faults import FaultPlane, parse_fault_spec
from ..parallel.resilience import RetryPolicy
from ..transducer.counters import WorkCounters
from ..transducer.pipeline import (
    ParallelPipeline,
    ParallelRunResult,
    run_sequential_pipeline,
    run_sequential_windows,
)
from ..transducer.policies import ELIMINATE_PAPER, PathPolicy
from ..xpath.automaton import build_automaton
from ..xpath.compile_tables import KernelTables
from ..xpath.filtering import apply_filters
from ..xpath.rewrite import compile_queries
from ..xmlstream.incremental import IncrementalLexer
from ..xmlstream.lexer import lex
from ..xmlstream.tokens import TokenColumns, TokenKind
from .inference import FeasibleTable, infer_feasible_paths
from .speculative import GrammarLearner, empty_speculative_table
from .stats import RunStats

__all__ = [
    "EngineError",
    "QueryResult",
    "SequentialEngine",
    "PPTransducerEngine",
    "GapEngine",
    "query",
    "element_at",
]


class EngineError(RuntimeError):
    """Raised for engine misconfiguration (wrong mode / missing grammar)."""


@dataclass(slots=True)
class QueryResult:
    """Results of one run: per-query match offsets plus run statistics."""

    queries: list[str]
    offsets_by_id: dict[int, list[int]]
    stats: RunStats

    @property
    def matches(self) -> dict[str, list[int]]:
        """Query string → sorted start-tag offsets of its matches."""
        return {q: self.offsets_by_id.get(i, []) for i, q in enumerate(self.queries)}

    def count(self, query: str | int) -> int:
        """Number of matches of one query (by string or id)."""
        if isinstance(query, int):
            return len(self.offsets_by_id.get(query, []))
        return len(self.offsets_by_id.get(self.queries.index(query), []))

    @property
    def total_matches(self) -> int:
        return sum(len(v) for v in self.offsets_by_id.values())

    def iter_matches(self, text: str, max_text: int = 200):
        """Yield ``(query, offset, tag, content)`` for every match.

        ``text`` must be the document the result came from; elements
        are decoded lazily with :func:`element_at`.
        """
        for qid, query in enumerate(self.queries):
            for offset in self.offsets_by_id.get(qid, []):
                tag, content = element_at(text, offset, max_text)
                yield query, offset, tag, content


class _EngineBase:
    """Shared query compilation and result assembly.

    ``backend`` accepts either a :class:`~repro.parallel.backend.Backend`
    instance (the caller owns and closes it) or a backend *name*
    (``"serial"``/``"thread"``), in which case the engine
    constructs and **owns** the backend: :meth:`close` — or using the
    engine as a context manager — shuts its pool down.

    ``tracer`` is a :class:`~repro.obs.tracer.Tracer` collecting
    wall-clock spans for every run; the default
    :data:`~repro.obs.tracer.NULL_TRACER` records nothing at
    effectively zero cost.

    ``resilience`` is a :class:`~repro.parallel.resilience.RetryPolicy`
    supervising the parallel phase (per-chunk timeout, bounded retry,
    serial fallback); ``None`` (the default) runs unsupervised.
    ``faults`` is a :class:`~repro.parallel.faults.FaultPlane` or spec
    string injecting deterministic faults into chunk workers — the
    testing plane the resilience layer recovers from.  Both are
    accepted on every engine for uniform construction; the sequential
    engine has no parallel phase and ignores them.

    ``journal`` is a :class:`~repro.obs.journal.Journal` recording the
    structured path-lifecycle event stream (the flight recorder); the
    default :data:`~repro.obs.journal.NULL_JOURNAL` records nothing at
    effectively zero cost.

    ``memo`` enables structural-repetition memoization for the chunk
    kernel (default off, opt-in; ignored by the sequential engine):
    repeated whole-element token spans replay from a shared memo
    instead of re-running the token loop, with matches, segments and
    counters observationally identical to ``memo=False`` — see
    :mod:`repro.xpath.subseq`.  It is off by default because it
    does not pay end to end: planning costs more than the kernel time
    it saves, and its process-wide tables keep about a million objects
    alive for the garbage collector to walk on every gen2 collection
    (docs/PERFORMANCE.md).
    """

    def __init__(
        self,
        queries: list[str],
        backend: Backend | str | None = None,
        tracer: Tracer | None = None,
        resilience: RetryPolicy | None = None,
        faults: FaultPlane | str | None = None,
        journal: Journal | None = None,
        memo: bool = False,
    ) -> None:
        if not queries:
            raise EngineError("at least one query is required")
        self.memo = bool(memo)
        self.queries = [str(q) for q in queries]
        self.compiled, self.registry = compile_queries(self.queries)
        self.automaton = build_automaton(self.registry.automaton_inputs())
        self.anchor_sids = self.registry.anchor_sids()
        self._owns_backend = isinstance(backend, str)
        self.backend = get_backend(backend) if isinstance(backend, str) else backend
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.resilience = resilience
        self.faults = parse_fault_spec(faults) if isinstance(faults, str) else faults
        self.journal = journal if journal is not None else NULL_JOURNAL

    def close(self) -> None:
        """Release the engine's backend pool, if the engine owns one.

        Backends passed in as instances stay open (their creator owns
        their lifecycle); backends the engine constructed from a name
        are shut down here.  Idempotent.
        """
        if self._owns_backend and self.backend is not None:
            self.backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def has_value_predicates(self) -> bool:
        """True when any query compares element text (``[a = 'x']``)."""
        from ..xpath.rewrite import Term

        def walk(expr) -> bool:
            if isinstance(expr, Term):
                return expr.literal is not None
            parts = getattr(expr, "parts", None)
            if parts is not None:
                return any(walk(p) for p in parts)
            part = getattr(expr, "part", None)
            return walk(part) if part is not None else False

        return any(
            walk(spec.expr)
            for cq in self.compiled
            for alt in cq.alternatives
            for spec in alt.anchors
        )

    @property
    def n_subqueries(self) -> int:
        """Total forward sub-queries merged into the automaton."""
        return len(self.registry.subqueries)

    def _result(self, run: ParallelRunResult, decoder=None,
                tracer: Tracer | None = None) -> QueryResult:
        with (tracer if tracer is not None else self.tracer).span(
                "xpath.filtering", cat="phase"):
            offsets = apply_filters(self.compiled, run.events, self.anchor_sids, decoder)
        stats = RunStats(counters=run.counters, chunk_counters=run.chunk_counters)
        return QueryResult(queries=self.queries, offsets_by_id=offsets, stats=stats)

    @staticmethod
    def _text_decoder(text: str):
        """Offset → element text, for value predicates over XML text."""
        return lambda offset: element_at(text, offset, max_text=None)[1]

    @staticmethod
    def _token_decoder(chunk_tokens):
        """Offset → element text, for value predicates over token columns.

        ``chunk_tokens`` is a document's :class:`TokenColumns` in order:
        one flat sequence (``run_tokens``), or one per chunk (a
        registered document's), with no offset tied across a chunk
        edge; an element's rows may run on into later chunks.  The
        columns are read only when a value predicate asks: a run
        without one pays nothing per token.
        """
        for cols in chunk_tokens:
            if not isinstance(cols, TokenColumns):
                raise TypeError(
                    "run_tokens takes TokenColumns (as tokenize_json returns "
                    f"them), not {type(cols).__name__}")
        columns = [cols for cols in chunk_tokens if cols]
        firsts = [cols.offsets[0] for cols in columns]

        def decode(offset: int) -> str:
            c = bisect_right(firsts, offset) - 1
            cols = columns[c] if c >= 0 else TokenColumns()
            kinds, offsets = cols.kinds, cols.offsets
            n = len(kinds)
            i = bisect_left(offsets, offset)
            while i < n and not (kinds[i] == TokenKind.START and offsets[i] == offset):
                i += 1
            if i >= n:
                raise ValueError(f"no element starts at offset {offset}")
            depth = 0
            parts: list[str] = []
            for cols in columns[c:]:
                kinds = cols.kinds
                for k in range(i, len(kinds)):
                    if kinds[k] == TokenKind.START:
                        depth += 1
                    elif kinds[k] == TokenKind.END:
                        depth -= 1
                        if depth == 0:
                            return "".join(parts)
                    elif depth == 1:
                        parts.append(cols.names[cols.name_ids[k]])
                i = 0
            return "".join(parts)

        return decode


class SequentialEngine(_EngineBase):
    """Single-threaded on-the-fly evaluation (the speedup baseline)."""

    def run(self, text: str) -> QueryResult:
        with self.tracer.span("core.kernel", cat="phase", mode="sequential") as sp:
            run = run_sequential_pipeline(text, self.automaton, self.anchor_sids)
            if self.tracer.enabled:
                sp.args.update(tokens=run.counters.total_tokens, bytes=len(text))
        return self._result(run, decoder=self._text_decoder(text))

    def run_tokens(self, tokens: TokenColumns) -> QueryResult:
        """Evaluate over pre-tokenised columns (e.g. JSON tokens)."""
        decoder = self._token_decoder((tokens,))
        counters = WorkCounters(chunks=1, starting_paths=1)
        if tokens:
            counters.bytes_lexed = tokens.offsets[-1] + 1 - tokens.offsets[0]
        run = run_sequential_windows(self.automaton, self.anchor_sids,
                                     [tokens], counters)
        return self._result(run, decoder=decoder)

    def run_stream(self, pieces) -> QueryResult:
        """Single-pass evaluation over a document arriving in pieces.

        ``pieces`` is any iterable of text fragments (file blocks,
        network reads).  Memory stays bounded by the document depth
        plus the largest single token plus the match list — the
        paper's "constant memory requirement" stream-processing mode.
        Match offsets are identical to a batch :meth:`run`.

        Exception: queries with *value predicates* need the matched
        candidates' text after the pass ends, so for those the stream
        is buffered (memory ∝ document size, like :meth:`run`).
        """
        lexer = IncrementalLexer()
        counters = WorkCounters(chunks=1, starting_paths=1)
        buffer: list[str] | None = [] if self.has_value_predicates else None

        def batches():
            for piece in pieces:
                counters.bytes_lexed += len(piece)
                if buffer is not None:
                    buffer.append(piece)
                yield lexer.feed(piece)
            yield lexer.close()

        run = run_sequential_windows(self.automaton, self.anchor_sids,
                                     batches(), counters)
        decoder = self._text_decoder("".join(buffer)) if buffer is not None else None
        return self._result(run, decoder=decoder)


class PPTransducerEngine(_EngineBase):
    """The PP-Transducer baseline: enumerate-all-paths parallelism."""

    def __init__(
        self,
        queries: list[str],
        n_chunks: int = 4,
        backend: Backend | str | None = None,
        tracer: Tracer | None = None,
        resilience: RetryPolicy | None = None,
        faults: FaultPlane | str | None = None,
        journal: Journal | None = None,
        memo: bool = False,
    ) -> None:
        super().__init__(queries, backend, tracer=tracer,
                         resilience=resilience, faults=faults,
                         journal=journal, memo=memo)
        self.n_chunks = n_chunks
        self.policy = PathPolicy.baseline()
        self._pipeline = ParallelPipeline(
            self.automaton, self.policy, self.anchor_sids, self.backend, self.tracer,
            resilience=self.resilience, faults=self.faults,
            journal=self.journal, memo=self.memo,
        )

    def run(
        self,
        text: str,
        n_chunks: int | None = None,
        chunks: list | None = None,
        chunk_tokens: tuple | None = None,
    ) -> QueryResult:
        return self._result(
            self._pipeline.run(text, n_chunks or self.n_chunks,
                               chunks=chunks, chunk_tokens=chunk_tokens),
            decoder=self._text_decoder(text),
        )

    def run_tokens(self, tokens: TokenColumns,
                   n_chunks: int | None = None) -> QueryResult:
        """Parallel evaluation over pre-tokenised columns (e.g. JSON)."""
        decoder = self._token_decoder((tokens,))
        return self._result(
            self._pipeline.run_tokens(tokens, n_chunks or self.n_chunks),
            decoder=decoder,
        )


class GapEngine(_EngineBase):
    """Grammar-aware parallel engine (the paper's contribution).

    Parameters
    ----------
    queries:
        XPath strings (the supported fragment, see :mod:`repro.xpath`).
    grammar:
        One of

        * DTD text (or a whole document with a DOCTYPE), or XML Schema
          text (detected and parsed by :mod:`repro.grammar.xsd_parser`);
        * a :class:`~repro.grammar.model.Grammar`;
        * a :class:`~repro.grammar.syntax_tree.StaticSyntaxTree`;
        * ``None`` — no pre-defined grammar: speculative mode; feed
          prior inputs through :meth:`learn`.
    mode:
        ``"auto"`` (default): non-speculative iff the grammar is
        complete.  ``"nonspec"`` insists on a complete grammar (raises
        otherwise).  ``"spec"`` forces speculation even with a complete
        grammar (useful for experiments).
    n_chunks:
        Default split width (the paper's worker count), overridable per
        run.
    eliminate / switch_to_stack:
        Ablation knobs for the two GAP features (defaults follow the
        paper).
    """

    def __init__(
        self,
        queries: list[str],
        grammar: str | Grammar | StaticSyntaxTree | None = None,
        mode: str = "auto",
        n_chunks: int = 4,
        eliminate: str = ELIMINATE_PAPER,
        switch_to_stack: bool = True,
        backend: Backend | str | None = None,
        tracer: Tracer | None = None,
        resilience: RetryPolicy | None = None,
        faults: FaultPlane | str | None = None,
        journal: Journal | None = None,
        memo: bool = False,
    ) -> None:
        super().__init__(queries, backend, tracer=tracer,
                         resilience=resilience, faults=faults,
                         journal=journal, memo=memo)
        if mode not in ("auto", "nonspec", "spec"):
            raise EngineError(f"unknown mode {mode!r} (expected auto/nonspec/spec)")
        self.n_chunks = n_chunks
        self.eliminate = eliminate
        self.switch_to_stack = switch_to_stack
        self.learner = GrammarLearner()
        self._table: FeasibleTable | None = None

        tree, complete = self._resolve_grammar(grammar)
        if mode == "nonspec" and not complete:
            raise EngineError(
                "non-speculative mode requires a complete grammar "
                "(missing declarations: partial or absent grammar supplied)"
            )
        if mode == "spec":
            complete = False
        self._tree = tree
        self._complete = complete and tree is not None
        #: kernel tables by pipeline kind (``exact`` or GAP), compiled on
        #: the first such run and kept, so a warm engine's runs skip the
        #: compile cache; the GAP entry goes wherever the table does
        self._tables: dict[bool, KernelTables] = {}

    @staticmethod
    def _resolve_grammar(
        grammar: str | Grammar | StaticSyntaxTree | None,
    ) -> tuple[StaticSyntaxTree | None, bool]:
        if grammar is None:
            return None, False
        if isinstance(grammar, str):
            grammar = parse_xsd(grammar) if is_xsd(grammar) else parse_dtd(grammar)
        if isinstance(grammar, Grammar):
            return build_syntax_tree(grammar), grammar.is_complete()
        if isinstance(grammar, StaticSyntaxTree):
            # a bare tree's provenance is unknown; treat as complete —
            # callers passing extracted trees should use GrammarLearner
            return grammar, True
        raise EngineError(f"unsupported grammar object {type(grammar).__name__}")

    # -- speculative-mode learning ---------------------------------------

    def learn(self, xml_text: str) -> None:
        """Extract partial grammar from a prior input (Algorithm 3)."""
        if self._complete:
            raise EngineError("learning is only meaningful without a complete grammar")
        with self.tracer.span("core.inference", cat="phase", learn=True) as sp:
            self.learner.observe(xml_text)
            if self.tracer.enabled:
                sp.args.update(bytes=len(xml_text), documents=self.learner.documents_observed)
        self._table = None  # invalidate
        self._tables.pop(False, None)

    @property
    def mode(self) -> str:
        return "nonspec" if self._complete else "spec"

    @property
    def table(self) -> FeasibleTable:
        """The feasible path table (built lazily, cached)."""
        if self._table is None:
            with self.tracer.span("core.inference", cat="phase") as sp:
                if self._tree is not None:
                    self._table = infer_feasible_paths(
                        self.automaton, self._tree, complete=self._complete
                    )
                elif self.learner.tree is not None:
                    self._table = self.learner.table(self.automaton)
                else:
                    self._table = empty_speculative_table()
                if self.tracer.enabled:
                    sp.args.update(entries=len(self._table), complete=self._complete)
        return self._table

    # -- execution --------------------------------------------------------

    def _pipeline(self, tracer: Tracer | None = None,
                  journal: Journal | None = None,
                  exact: bool = False) -> ParallelPipeline:
        """A GAP pipeline, or with ``exact`` one for chunks that run from
        known entry configurations: those read only the transition and
        accept tables, which every policy compiles alike, so the
        baseline's serve and the feasible table is not inferred.  The
        engine keeps both kinds of tables after their first run."""
        tracer = tracer if tracer is not None else self.tracer
        journal = journal if journal is not None else self.journal
        if exact:
            policy = PathPolicy.baseline()
        else:
            policy = PathPolicy.gap(self.table, eliminate=self.eliminate,
                                    switch_to_stack=self.switch_to_stack)
        tables = self._tables.get(exact)
        if tables is None:
            # looked up per call, so a wrapper patched onto the kernel
            # module (perfbench/spans.py) times every compile
            from .kernel import tables_for_policy

            with tracer.span("xpath.compile", cat="phase"):
                tables = self._tables[exact] = tables_for_policy(
                    self.automaton, policy, self.anchor_sids, journal=journal)
        return ParallelPipeline(
            self.automaton, policy, self.anchor_sids, self.backend, tracer,
            resilience=self.resilience, faults=self.faults,
            journal=journal, memo=self.memo and not exact, tables=tables,
        )

    def run(
        self,
        text: str,
        n_chunks: int | None = None,
        learn: bool = False,
        chunks: list | None = None,
        chunk_tokens: tuple | None = None,
        tracer: Tracer | None = None,
        journal: Journal | None = None,
        chunk_paths: tuple | None = None,
        decoder: Callable[[int], str] | None = None,
    ) -> QueryResult:
        """Query ``text``; with ``learn=True`` also extend the learned grammar.

        ``learn`` implements the paper's *online* grammar extraction
        (Section 6: the extractor "can be enabled either online (for
        streaming data) or offline"): the document just queried feeds
        Algorithm 3, so the *next* run speculates from a better table.
        Only meaningful in speculative mode.

        ``chunks``/``chunk_tokens`` reuse a precomputed split (and
        optionally pre-lexed per-chunk token columns) — see
        :meth:`repro.transducer.pipeline.ParallelPipeline.run`.
        ``chunk_paths`` (each chunk's open-element path, as the document
        registry records it) runs every chunk from its exact entry
        configuration instead of the feasible-path table: one starting
        path per chunk, no switches, and the table is not inferred.

        ``decoder`` maps a match offset to its element's text for value
        predicates; the default decodes the XML in ``text``.  A
        registered JSON document supplies one over its chunk columns
        (``text`` is then the JSON source, which no chunk lexes).

        ``tracer``/``journal`` override the engine's defaults *for
        this run only* — a GAP pipeline is constructed per run, so
        concurrent runs of one shared (e.g. service-cached) engine can
        each collect into their own tracer without racing.
        """
        pipeline = self._pipeline(tracer, journal, exact=chunk_paths is not None)
        result = self._result(
            pipeline.run(text, n_chunks or self.n_chunks, chunks=chunks,
                         chunk_tokens=chunk_tokens, chunk_paths=chunk_paths),
            decoder=decoder if decoder is not None else self._text_decoder(text),
            tracer=tracer,
        )
        if learn:
            self.learn(text)
        return result

    def run_tokens(self, tokens: TokenColumns,
                   n_chunks: int | None = None) -> QueryResult:
        """Parallel GAP evaluation over pre-tokenised columns (e.g. JSON)."""
        decoder = self._token_decoder((tokens,))
        return self._result(
            self._pipeline().run_tokens(tokens, n_chunks or self.n_chunks),
            decoder=decoder,
        )

    def learn_tokens(self, tokens: list) -> None:
        """Speculative-mode learning from a pre-tokenised prior input."""
        if self._complete:
            raise EngineError("learning is only meaningful without a complete grammar")
        with self.tracer.span("core.inference", cat="phase", learn=True) as sp:
            self.learner.observe_tokens(tokens)
            if self.tracer.enabled:
                sp.args.update(tokens=len(tokens), documents=self.learner.documents_observed)
        self._table = None
        self._tables.pop(False, None)


def query(
    text: str,
    queries: list[str],
    grammar: str | Grammar | None = None,
    n_chunks: int = 4,
) -> dict[str, list[int]]:
    """One-shot convenience: run queries over a document, return matches."""
    engine = GapEngine(queries, grammar=grammar, n_chunks=n_chunks)
    return engine.run(text).matches


def element_at(text: str, offset: int,
               max_text: int | None = 200) -> tuple[str, str]:
    """Decode the element at a match offset into ``(tag, text content)``.

    Re-lexes from the offset; text content is the concatenated direct
    character data, truncated to ``max_text`` characters (a display
    bound; ``None`` keeps it whole, as value predicates need).  The
    lazy :func:`~repro.xmlstream.lexer.lex` views suffice: reading
    stops at the element's end, one small window later.
    """
    tokens = lex(text, offset)
    first = next(tokens, None)
    if first is None or not first.is_start:
        raise ValueError(f"no element starts at offset {offset}")
    depth = 1
    parts: list[str] = []
    for tok in tokens:
        if tok.is_start:
            depth += 1
        elif tok.is_end:
            depth -= 1
            if depth == 0:
                break
        elif depth == 1:
            parts.append(tok.name)
            if max_text is not None and sum(len(p) for p in parts) >= max_text:
                break
    return first.name, "".join(parts)[:max_text]
