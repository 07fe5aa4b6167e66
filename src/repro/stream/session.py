"""One live stream: incremental lex → seal → evaluate → match deltas.

:class:`StreamSession` is the streaming counterpart of one
``GapEngine.run()`` call, unrolled over time.  It mirrors the batch
token pipeline operation-for-operation so that a finalized stream is
byte-identical — matches *and* work counters — to a one-shot batch run
over the concatenated bytes with the same chunk boundaries:

* sealed chunks are executed by the pipeline's own chunk runner
  (:meth:`ParallelPipeline.chunk_runner`), chunk 0 from the initial
  configuration, later chunks with ``start_states=None`` so the
  feasible-path table supplies the candidate entry paths — the paper's
  mid-stream entry, no history replay;
* each sealed chunk is joined onto the carried ``(state, stack)`` with
  the same :func:`~repro.transducer.mapping.join_results` the batch
  pipeline uses (the join is per-chunk sequential, so feeding it one
  chunk at a time accumulates identical counters: join steps,
  misspeculations, reprocessed tokens);
* reprocessing after a misspeculation only ever needs the current
  chunk's tokens (recovery ranges lie inside the chunk being joined),
  so resident token state stays bounded by one chunk.

Matches are emitted incrementally by :class:`DeltaFilter`, which runs
the filter phase over anchor-*balanced* segments of the event stream:
a counter of open anchor intervals returns to zero exactly at offsets
where no predicate interval spans the cut, so each segment filters
independently and is discarded after its delta is emitted.  Queries
without predicate anchors retain no events at all.

Value-predicate queries (``[a = 'x']``) are rejected at construction:
their filter needs the matched elements' text after the fact, which a
bounded-memory stream does not keep (the batch engines serve those).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

from ..core.engine import GapEngine
from ..jsonstream.incremental import IncrementalJSONTokenizer
from ..jsonstream.tokenizer import DEFAULT_ROOT
from ..obs.journal import Journal, NULL_JOURNAL
from ..transducer.counters import WorkCounters
from ..transducer.mapping import join_results
from ..transducer.pipeline import reprocess_range
from ..xmlstream.incremental import IncrementalLexer
from ..xmlstream.tokens import TokenColumns, TokenKind
from ..xpath.events import EventKind, MatchEvent
from ..xpath.filtering import apply_filters

__all__ = ["StreamError", "StreamDelta", "DeltaFilter", "StreamSession",
           "KINDS", "DEFAULT_CHUNK_BYTES"]

#: input kinds a stream can carry
KINDS = ("xml", "json")

#: default target size of a sealed chunk
DEFAULT_CHUNK_BYTES = 1 << 16


class StreamError(RuntimeError):
    """Raised for stream misuse (bad kind, value predicates, closed)."""


@dataclass(slots=True)
class StreamDelta:
    """New matches produced by one sealed chunk.

    ``seq`` is assigned by the delivery hub (0 while unpublished);
    ``matches`` maps query string → new match offsets, all lying in
    the chunk span ``[begin, end)``.
    """

    chunk: int
    begin: int
    end: int
    matches: dict[str, list[int]]
    seq: int = 0

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.matches.values())

    def to_dict(self) -> dict:
        return {"seq": self.seq, "chunk": self.chunk,
                "begin": self.begin, "end": self.end,
                "matches": self.matches, "total": self.total}


class DeltaFilter:
    """Incremental filter phase: flush at anchor-balance points.

    CLOSE events exist only for anchor sids (predicate holders); a
    running count of open anchor intervals hits zero exactly where no
    interval spans the event stream, so the prefix up to the *last*
    balance point filters independently of everything after it: later
    hits cannot bind into closed intervals (offsets strictly increase;
    INSIDE needs containment, SAME needs offset equality).  The union
    of per-segment results equals one whole-stream filter pass.
    """

    def __init__(self, compiled, queries: list[str],
                 anchor_sids: frozenset[int]) -> None:
        self._compiled = compiled
        self._queries = queries
        self._anchors = anchor_sids
        self._pending: list[MatchEvent] = []
        self._open = 0

    @property
    def pending(self) -> int:
        """Events retained (bounded by the widest anchor interval)."""
        return len(self._pending)

    def push(self, events: list[MatchEvent]) -> dict[str, list[int]]:
        """Absorb new events; return matches of newly balanced segments."""
        pend = self._pending
        openc = self._open
        anchors = self._anchors
        flush_at = 0
        base = len(pend)
        for k, ev in enumerate(events):
            pend.append(ev)
            if ev.kind is EventKind.HIT:
                if ev.sid in anchors:
                    openc += 1
            else:
                openc -= 1
            if openc == 0:
                flush_at = base + k + 1
        self._open = openc
        if flush_at == 0:
            return {}
        segment = pend[:flush_at]
        del pend[:flush_at]
        return self._apply(segment)

    def flush(self) -> dict[str, list[int]]:
        """Filter whatever remains (stream end); unbalanced anchors
        raise the same FilterError a batch run would."""
        segment, self._pending = self._pending, []
        self._open = 0
        if not segment:
            return {}
        return self._apply(segment)

    def _apply(self, segment: list[MatchEvent]) -> dict[str, list[int]]:
        offsets = apply_filters(self._compiled, segment, self._anchors, None)
        return {self._queries[qid]: hits
                for qid, hits in sorted(offsets.items()) if hits}

    # -- checkpoint support --------------------------------------------

    def state(self) -> dict:
        return {"open": self._open,
                "pending": [[int(ev.kind), ev.sid, ev.offset, ev.depth]
                            for ev in self._pending]}

    def restore(self, state: dict) -> None:
        self._open = state["open"]
        self._pending = [MatchEvent(EventKind(k), sid, off, depth)
                         for k, sid, off, depth in state["pending"]]


class StreamSession:
    """Incremental evaluation of continuous queries over one stream."""

    def __init__(
        self,
        queries: list[str],
        grammar: str | None = None,
        kind: str = "xml",
        root_name: str = DEFAULT_ROOT,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        memo: bool = False,
        journal: Journal | None = None,
        track_matches: bool = True,
    ) -> None:
        if kind not in KINDS:
            raise StreamError(f"unknown stream kind {kind!r} (choose from {KINDS})")
        if chunk_bytes < 1:
            raise StreamError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.kind = kind
        self.root_name = root_name
        self.chunk_bytes = int(chunk_bytes)
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.engine = GapEngine(queries, grammar=grammar, memo=memo,
                                journal=self.journal)
        if self.engine.has_value_predicates:
            raise StreamError(
                "continuous queries cannot use value predicates ([a = 'x']): "
                "their filter needs document text a bounded-memory stream "
                "does not retain — use the batch engines for those"
            )
        pipe = self.engine._pipeline(journal=self.journal)
        self._pipe = pipe
        self._runner = pipe.chunk_runner()
        self._strict = not pipe.policy.speculative
        self._filter = DeltaFilter(self.engine.compiled, self.engine.queries,
                                   self.engine.anchor_sids)
        if kind == "xml":
            self._lexer = IncrementalLexer()
        else:
            self._lexer = IncrementalJSONTokenizer(root_name)
        # sealing state: tokens not yet sealed into a chunk
        self._tokens = TokenColumns()
        self._next_begin = 0         # byte begin of the next chunk
        self._fed = 0                # total bytes fed
        # evaluator state carried across sealed chunks
        self._state = self.engine.automaton.initial
        self._stack: list[int] = []
        self._chunk_index = 0
        self.totals = WorkCounters()
        self.finalized = False
        #: cumulative matches (query → offsets); ``None`` when
        #: ``track_matches=False`` (server tails: deltas only)
        self.matches: dict[str, list[int]] | None = (
            {q: [] for q in self.engine.queries} if track_matches else None)
        #: set to ``[]`` by the differential tests to record every
        #: sealed ``(begin, end, tokens)`` — unbounded, so off by default
        self.sealed_log: list | None = None

    # -- introspection -------------------------------------------------

    @property
    def queries(self) -> list[str]:
        return self.engine.queries

    @property
    def offset(self) -> int:
        """Total bytes fed so far (the append cursor)."""
        return self._fed

    @property
    def committed(self) -> int:
        """Bytes sealed into evaluated chunks (the checkpoint floor)."""
        return self._next_begin

    @property
    def lag_bytes(self) -> int:
        """Bytes fed but not yet sealed/evaluated."""
        return self._fed - self._next_begin

    @property
    def chunks_sealed(self) -> int:
        return self._chunk_index

    @property
    def resident_tokens(self) -> int:
        """Tokens buffered awaiting a seal (bounded by chunk size)."""
        return len(self._tokens)

    @property
    def buffered_bytes(self) -> int:
        """Lexer hold-back (bounded by the largest single token)."""
        return self._lexer.buffered

    @property
    def pending_events(self) -> int:
        return self._filter.pending

    @property
    def final_state(self) -> int:
        return self._state

    # -- ingestion -----------------------------------------------------

    def feed(self, piece: str) -> list[StreamDelta]:
        """Append bytes; returns a delta per chunk this piece sealed."""
        if self.finalized:
            raise StreamError("feed() after finalize()")
        self._fed += len(piece)
        self._tokens.extend(self._lexer.feed(piece))
        return self._seal_ready()

    def finalize(self) -> list[StreamDelta]:
        """End of stream: flush the lexer, seal the last chunk.

        After this the session's :attr:`totals` (and :attr:`matches`,
        when tracked) are byte-identical to a batch run over the same
        bytes with the same chunk boundaries.
        """
        if self.finalized:
            raise StreamError("finalize() called twice")
        self._tokens.extend(self._lexer.close())
        deltas = self._seal_ready()
        # XML chunks end at the byte length; the token-mode pipeline's
        # final chunk ends one past the last offset (the JSON root END
        # sits *at* the byte length) — mirror each convention exactly
        end = self._fed
        if self.kind == "json" and self._tokens:
            end = self._tokens.offsets[-1] + 1
        last = self._seal(len(self._tokens), end)
        if last is not None:
            deltas.append(last)
        tail = self._filter.flush()
        if tail:
            # only reachable with events the final chunk left
            # unbalanced — a malformed document; surface like batch
            deltas.append(StreamDelta(chunk=self._chunk_index,
                                      begin=self._next_begin,
                                      end=self._fed, matches=tail))
        self.finalized = True
        return deltas

    # -- sealing + evaluation ------------------------------------------

    def _cut_ok(self, idx: int) -> bool:
        """May a chunk boundary sit immediately before token ``idx``?

        XML chunks must begin on a tag (they re-lex from ``<`` after a
        checkpoint restart, and match the batch splitter's alignment);
        JSON boundaries need strictly-increasing offsets so reprocess
        slicing is unambiguous (a wrapper START and its scalar TEXT
        share an offset).
        """
        if self.kind == "xml":
            return self._tokens.kinds[idx] != TokenKind.TEXT
        offsets = self._tokens.offsets
        return idx > 0 and offsets[idx] > offsets[idx - 1]

    def _seal_ready(self) -> list[StreamDelta]:
        """Seal every chunk whose span has reached the target size."""
        deltas: list[StreamDelta] = []
        while True:
            # the first token at or past the target size where a chunk
            # may begin (offsets never decrease)
            offsets = self._tokens.offsets
            cut = bisect_left(offsets, self._next_begin + self.chunk_bytes, 1)
            while cut < len(offsets) and not self._cut_ok(cut):
                cut += 1
            if cut >= len(offsets):
                self._compact()
                return deltas
            delta = self._seal(cut, offsets[cut])
            if delta is not None:
                deltas.append(delta)

    def _compact(self) -> None:
        """Move the buffer to a string table of its own, if it pays.

        Sealing slices the buffer, and the slice keeps the shared table
        with the names of every sealed row.  Once those outnumber the
        rows still buffered, the kept rows move to a fresh table that
        holds only their names, so the table stays bounded by about one
        chunk.  Called once per feed, after all of its seals.
        """
        tokens = self._tokens
        if len(tokens.names) > 2 * len(tokens):
            rest = TokenColumns()
            rest.extend(tokens)
            self._tokens = rest

    def _seal(self, upto: int, end: int) -> StreamDelta | None:
        """Evaluate tokens[:upto] as chunk ``[next_begin, end)``."""
        part = self._tokens[:upto]
        begin = self._next_begin
        if not part:
            # nothing to evaluate (empty stream, or a trailing span of
            # skipped whitespace); the batch splitter never emits an
            # empty chunk either, so skipping keeps counters identical
            self._tokens = self._tokens[upto:]
            self._next_begin = end
            return None
        ci = self._chunk_index
        if self.sealed_log is not None:
            self.sealed_log.append((begin, end, tuple(part)))
        start = (frozenset((self.engine.automaton.initial,))
                 if ci == 0 else None)
        result = self._runner.run_chunk(part, ci, begin, end,
                                        start_states=start,
                                        journal=self.journal)
        self.totals.merge(result.counters)

        # recovery ranges lie inside the chunk being joined, so the
        # chunk's own tokens suffice — same cut as the batch token pipeline
        reprocess = partial(reprocess_range, self._runner, part,
                            journal=self.journal)
        state, stack, events = join_results(
            (self._state, self._stack, []), [result], reprocess, self.totals,
            strict=self._strict, journal=self.journal,
        )
        self._state, self._stack = state, stack
        self._chunk_index += 1
        self._tokens = self._tokens[upto:]
        self._next_begin = end

        matches = self._filter.push(events)
        if self.matches is not None:
            for q, hits in matches.items():
                self.matches[q].extend(hits)
        if not matches:
            return None
        return StreamDelta(chunk=ci, begin=begin, end=end, matches=matches)

    # -- checkpoint support --------------------------------------------

    def snapshot(self) -> dict:
        """The complete dynamic state as plain JSON-safe values.

        Everything here is bounded: the lexer tail by the largest
        token, the token buffer by one chunk, pending filter events by
        the widest anchor interval, the stack by document depth.
        """
        return {
            "kind": self.kind,
            "lexer": self._lexer.state(),
            "tokens": [[int(t.kind), t.name, t.offset] for t in self._tokens],
            "next_begin": self._next_begin,
            "fed": self._fed,
            "state": self._state,
            "stack": list(self._stack),
            "chunk_index": self._chunk_index,
            "counters": self.totals.as_dict(),
            "filter": self._filter.state(),
        }

    def restore(self, snap: dict) -> None:
        """Adopt a :meth:`snapshot` taken from an equivalent session.

        Work counters resume exactly; cumulative :attr:`matches` restart
        from the restore point (pre-snapshot matches were already
        delivered as deltas and are deliberately not retained — the
        snapshot holds only bounded state).
        """
        if snap["kind"] != self.kind:
            raise StreamError(
                f"checkpoint kind {snap['kind']!r} != session kind {self.kind!r}")
        self._lexer = type(self._lexer).restore(snap["lexer"])
        self._tokens = TokenColumns.from_tokens(snap["tokens"])
        self._next_begin = snap["next_begin"]
        self._fed = snap["fed"]
        self._state = snap["state"]
        self._stack = list(snap["stack"])
        self._chunk_index = snap["chunk_index"]
        self.totals = WorkCounters(**snap["counters"])
        self._filter.restore(snap["filter"])
