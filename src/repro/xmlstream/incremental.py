"""Incremental lexer — tokenise XML arriving in pieces.

The paper motivates on-the-fly querying with stream processing:
"process the queries on-the-fly without constructing any tree
structure ... with a constant memory requirement" (Section 2.1).  This
class accepts the document in arbitrary pieces (network reads, file
blocks) and yields tokens as soon as they are complete, holding back
only the unfinished tail — so memory stays bounded by the largest
single token, not the document.

It drives the same scanning loop as :func:`~repro.xmlstream.lexer.lex_range`
(:func:`~repro.xmlstream.lexer._scan`): each :meth:`~IncrementalLexer.feed`
scans the held tail plus the new piece and stops at the first
unfinished construct; :meth:`~IncrementalLexer.close` scans what is
left as the end of the document.  Both return the completed tokens as
:class:`~repro.xmlstream.tokens.TokenColumns` with a string table of
their own.  Offsets remain *global* (as if the pieces were
concatenated), so matches reported over a stream are directly
comparable with batch runs.

Usage::

    lexer = IncrementalLexer()
    for piece in pieces:
        for token in lexer.feed(piece):
            ...
    for token in lexer.close():   # flush the tail, verify completeness
        ...
"""

from __future__ import annotations

from .lexer import _scan
from .tokens import TokenColumns

__all__ = ["IncrementalLexer"]


class IncrementalLexer:
    """Streaming tokeniser; see module docstring."""

    def __init__(self) -> None:
        self._buf = ""
        self._base = 0  # global offset of _buf[0]
        self._closed = False

    @property
    def buffered(self) -> int:
        """Bytes currently held back (bounded by the largest token)."""
        return len(self._buf)

    def feed(self, piece: str) -> TokenColumns:
        """Consume a piece; return every token completed by it."""
        if self._closed:
            raise ValueError("feed() after close()")
        buf = self._buf + piece
        out = TokenColumns()
        stop = _scan(buf, 0, len(buf), self._base, False, out)
        self._buf = buf[stop:]
        self._base += stop
        return out

    def close(self) -> TokenColumns:
        """Flush trailing text; raise if a construct is left unfinished."""
        self._closed = True
        buf, self._buf = self._buf, ""
        out = TokenColumns()
        _scan(buf, 0, len(buf), self._base, True, out)
        return out

    # -- state snapshot (checkpoint support) ---------------------------

    def state(self) -> dict:
        """The complete lexer state as JSON-safe plain values."""
        return {"buf": self._buf, "base": self._base, "closed": self._closed}

    @classmethod
    def restore(cls, state: dict) -> "IncrementalLexer":
        """Rebuild a lexer from a :meth:`state` snapshot."""
        lexer = cls()
        lexer._buf = state["buf"]
        lexer._base = state["base"]
        lexer._closed = state["closed"]
        return lexer
