"""One live stream: incremental lex → seal → evaluate → match deltas.

:class:`StreamSession` is the streaming counterpart of one
``GapEngine.run()`` call, unrolled over time.  A stream seals its
chunks one after another, so each chunk's entry configuration is known
before it runs: it is the ``(state, stack)`` the previous seal ended
in (the automaton's initial configuration for chunk 0).  Every sealed
chunk therefore runs the sequential loop from that exact entry
(:meth:`DenseRunner.run_chunk` with ``entry``, the path registered
documents take), and its one mapping entry's final state and stack
become the carried configuration.  There is no mid-stream speculation,
no join search and no misspeculation recovery, and the feasible-path
table is never inferred; the grammar identifies the stream (its checkpoint key)
and is parsed, but does not change how it runs.

A finalized XML stream equals, on matches *and* work counters, the
exact-entry batch run over the same sealed partition:
``GapEngine.run(doc, chunks=…, chunk_tokens=…, chunk_paths=…)`` with
each chunk's open-element path (:func:`repro.store.docprep.chunk_paths`).
A JSON stream's matches equal ``GapEngine.run_tokens``, and its token
counters those of ``SequentialEngine.run_tokens``.

Malformed input — a lexical error, or an end tag that underflows the
carried stack — breaks the stream: the failing call raises
:class:`StreamError` naming the offset, carrying the deltas of the
chunks it sealed before the bad one, and every later ``feed`` or
``finalize`` raises the same error.

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

from ..core.engine import GapEngine
from ..jsonstream.incremental import IncrementalJSONTokenizer, JSONError
from ..jsonstream.tokenizer import DEFAULT_ROOT
from ..obs.journal import Journal, NULL_JOURNAL
from ..transducer.counters import WorkCounters
from ..transducer.mapping import StackUnderflow, join_exact
from ..xmlstream.incremental import IncrementalLexer
from ..xmlstream.lexer import LexError
from ..xmlstream.tokens import TokenColumns, TokenKind
from ..xpath.events import EventKind, MatchEvent
from ..xpath.filtering import apply_filters

__all__ = ["StreamError", "StreamDelta", "DeltaFilter", "StreamSession",
           "KINDS", "DEFAULT_CHUNK_BYTES"]

#: input kinds a stream can carry
KINDS = ("xml", "json")

#: default target size of a sealed chunk
DEFAULT_CHUNK_BYTES = 1 << 16


#: the errors of malformed input; each carries the offset it names
_MALFORMED = (LexError, JSONError, StackUnderflow)


class StreamError(RuntimeError):
    """Raised for stream misuse (bad kind, value predicates, closed) and
    for malformed input.

    ``deltas`` holds the matches of the chunks a failing call sealed
    before the malformed one: they are valid and still to be delivered.
    """

    def __init__(self, message: str, deltas: list | None = None) -> None:
        super().__init__(message)
        self.deltas = deltas or []


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
        self.engine = GapEngine(queries, grammar=grammar, journal=self.journal)
        if self.engine.has_value_predicates:
            raise StreamError(
                "continuous queries cannot use value predicates ([a = 'x']): "
                "their filter needs document text a bounded-memory stream "
                "does not retain — use the batch engines for those"
            )
        # every chunk runs from its exact entry, so only the transition
        # and accept tables are read: the feasible table is never built
        self._runner = self.engine._pipeline(
            journal=self.journal, exact=True).chunk_runner()
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
        self._stack: tuple[int, ...] = ()
        self._chunk_index = 0
        self.totals = WorkCounters()
        self.finalized = False
        #: why the stream is broken (malformed input), else ``None``
        self.error: str | None = None
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
        self._check_intact()
        self._fed += len(piece)
        deltas: list[StreamDelta] = []
        try:
            self._tokens.extend(self._lexer.feed(piece))
            self._seal_ready(deltas)
        except _MALFORMED as exc:
            raise self._broken(exc, deltas) from exc
        return deltas

    def finalize(self) -> list[StreamDelta]:
        """End of stream: flush the lexer, seal the last chunk.

        After this the session's :attr:`totals` (and :attr:`matches`,
        when tracked) equal those of an exact-entry batch run over the
        same bytes with the same chunk boundaries.
        """
        if self.finalized:
            raise StreamError("finalize() called twice")
        self._check_intact()
        deltas: list[StreamDelta] = []
        try:
            self._tokens.extend(self._lexer.close())
            self._seal_ready(deltas)
            # XML chunks end at the byte length; the token-mode
            # pipeline's final chunk ends one past the last offset (the
            # JSON root END sits *at* the byte length) — mirror each
            # convention exactly
            end = self._fed
            if self.kind == "json" and self._tokens:
                end = self._tokens.offsets[-1] + 1
            last = self._seal(len(self._tokens), end)
        except _MALFORMED as exc:
            raise self._broken(exc, deltas) from exc
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

    def _check_intact(self) -> None:
        if self.error is not None:
            raise StreamError(self.error)

    def _broken(self, exc: Exception, deltas: list[StreamDelta]) -> StreamError:
        """Mark the stream broken by ``exc``; the error to raise."""
        self.error = f"stream broken by malformed input: {exc}"
        return StreamError(self.error, deltas)

    # -- sealing + evaluation ------------------------------------------

    def _cut_ok(self, idx: int) -> bool:
        """May a chunk boundary sit immediately before token ``idx``?

        XML chunks must begin on a tag (they re-lex from ``<`` after a
        checkpoint restart, and match the batch splitter's alignment);
        JSON boundaries need strictly-increasing offsets so every
        token, and so every delta's matches, lies inside its chunk's
        span ``[begin, end)`` (a wrapper START and its scalar TEXT
        share an offset).
        """
        if self.kind == "xml":
            return self._tokens.kinds[idx] != TokenKind.TEXT
        offsets = self._tokens.offsets
        return idx > 0 and offsets[idx] > offsets[idx - 1]

    def _seal_ready(self, deltas: list[StreamDelta]) -> None:
        """Seal every chunk whose span has reached the target size,
        appending their deltas to ``deltas``."""
        while True:
            # the first token at or past the target size where a chunk
            # may begin (offsets never decrease)
            offsets = self._tokens.offsets
            cut = bisect_left(offsets, self._next_begin + self.chunk_bytes, 1)
            while cut < len(offsets) and not self._cut_ok(cut):
                cut += 1
            if cut >= len(offsets):
                self._compact()
                return
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
        carried = (self._state, self._stack)
        result = self._runner.run_chunk(part, ci, begin, end,
                                        journal=self.journal, entry=carried)
        if self.sealed_log is not None:
            self.sealed_log.append((begin, end, tuple(part)))
        self.totals.merge(result.counters)
        self._state, self._stack, events = join_exact(
            carried, [result], self.totals)
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
            "error": self.error,
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
        self._stack = tuple(snap["stack"])
        self._chunk_index = snap["chunk_index"]
        self.totals = WorkCounters(**snap["counters"])
        self._filter.restore(snap["filter"])
        self.error = snap.get("error")
