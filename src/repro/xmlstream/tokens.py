"""Token types produced by the streaming XML lexer.

The pushdown-transducer pipeline never builds a DOM: the lexer turns raw
XML text into a flat stream of tokens (start tags, end tags, and text),
and every downstream component (sequential transducer, PP-Transducer
baseline, GAP transducer) consumes that stream.

The lexer stores a chunk's tokens as :class:`TokenColumns`: three
parallel columns (``kinds`` in a ``bytearray``, ``name_ids`` in an
``array('i')``, ``offsets`` in an ``array('q')``) plus a per-chunk
string table ``names`` that holds every tag name and text run once.  A
chunk of thousands of tokens is then five containers plus one string
per distinct name instead of a tuple per token, so the garbage
collector has nothing per token to walk, and the chunk kernel reads the
columns directly.

A :class:`Token` is the *view* of one row: a named tuple ``(kind, name,
offset)``, built on demand when a consumer indexes or iterates the
columns (the DOM reference, the sequential transducer, ``element_at``,
tests).  It equals (and hashes like) that plain tuple; views are built
with ``tuple.__new__``, the cheapest construction Python offers for an
immutable record.  :func:`as_columns` turns any other token iterable
(hand-written test streams, view lists) into columns; the library
itself calls it only where a list can still arrive: the kernel's
entry, :meth:`TokenColumns.extend` and the stream's checkpoint
restore.

Tokens carry the offset of their first character in the original
document, counted in code points (``str`` indices), not UTF-8 bytes.
Offsets serve two purposes:

* **chunk framing** — the parallel split phase cuts the document at tag
  boundaries, and each worker lexes its own range; offsets are
  global, so match positions from different workers can be merged
  without coordination;
* **match identity** — a match is reported as the offset/index of the
  element's start tag, which also serves as the join key for the
  predicate filter phase.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Iterable, Sequence
from itertools import compress, repeat
from struct import pack
from typing import NamedTuple

__all__ = ["TokenKind", "Token", "TokenColumns", "as_columns",
           "start_tag", "end_tag", "text_token"]


class TokenKind(enum.IntEnum):
    """Kind of a lexical token.

    ``IntEnum`` so that comparisons in the hot transducer loop are plain
    integer compares.
    """

    START = 0  #: start tag, e.g. ``<entry>`` (also emitted for ``<e/>``)
    END = 1  #: end tag, e.g. ``</entry>`` (also emitted for ``<e/>``)
    TEXT = 2  #: character data between tags (whitespace-only text is skipped)


class Token(NamedTuple):
    """One lexical token of the XML stream.

    Immutable, hashable, equal by value and picklable (the
    registry's token cache ships tokens by pickle).

    Attributes
    ----------
    kind:
        One of :class:`TokenKind`.
    name:
        Element name for START/END tokens; the text content for TEXT
        tokens.
    offset:
        Offset (in code points) of the token's first character in the
        document (the ``<`` for tags, the first character for text).
    """

    kind: TokenKind
    name: str
    offset: int

    @property
    def is_start(self) -> bool:
        return self.kind == TokenKind.START

    @property
    def is_end(self) -> bool:
        return self.kind == TokenKind.END

    @property
    def is_text(self) -> bool:
        return self.kind == TokenKind.TEXT

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == TokenKind.START:
            return f"<{self.name}>@{self.offset}"
        if self.kind == TokenKind.END:
            return f"</{self.name}>@{self.offset}"
        return f"text({self.name!r})@{self.offset}"


def start_tag(name: str, offset: int = 0) -> Token:
    """Convenience constructor for a START token (used heavily in tests)."""
    return Token(TokenKind.START, name, offset)


def end_tag(name: str, offset: int = 0) -> Token:
    """Convenience constructor for an END token."""
    return Token(TokenKind.END, name, offset)


def text_token(content: str, offset: int = 0) -> Token:
    """Convenience constructor for a TEXT token."""
    return Token(TokenKind.TEXT, content, offset)


# builds a Token view from its field tuple without the namedtuple __new__
_new = tuple.__new__

#: TokenKind by column value; indexing this is much cheaper than the
#: enum constructor when views are built
_KINDS = (TokenKind.START, TokenKind.END, TokenKind.TEXT)

#: ``kinds.translate(_IS_TAG)``: 1 on START/END rows, 0 on TEXT rows
_IS_TAG = bytes([1, 1, 0]) + bytes(253)


class TokenColumns(Sequence):
    """A token sequence stored as three parallel columns.

    ``kinds[i]`` is the :class:`TokenKind` value of row ``i``,
    ``names[name_ids[i]]`` its tag name (START/END) or text content
    (TEXT), and ``offsets[i]`` its offset in the document.  ``names`` is
    this sequence's string table: each distinct string appears once.
    A slice shares the table (and its index) of the sequence it was cut
    from; rows appended to a slice add their new names to that shared
    table.

    Indexing and iteration yield :class:`Token` views, so the columns
    compare equal to any sequence of the same tokens (a list, a tuple,
    other columns).  Appending rows (:meth:`append`, :meth:`extend`)
    interns names through ``_ids``, which is built on the first append.
    Columns that take no more rows (a registered document's) drop that
    index and keep only :meth:`tag_ids`'s (:meth:`index_tags_only`).
    """

    __slots__ = ("kinds", "name_ids", "offsets", "names", "_ids", "_tags")

    def __init__(
        self,
        kinds: bytearray | None = None,
        name_ids: array | None = None,
        offsets: array | None = None,
        names: list[str] | None = None,
    ) -> None:
        self.kinds = bytearray() if kinds is None else kinds
        self.name_ids = array("i") if name_ids is None else name_ids
        self.offsets = array("q") if offsets is None else offsets
        self.names = [] if names is None else names
        self._ids: dict[str, int] | None = None if names else {}
        self._tags: dict[str, int] | None = None

    # -- building ----------------------------------------------------------

    def ids(self) -> dict[str, int]:
        """The string table's index: name → id (built on first use)."""
        ids = self._ids
        if ids is None:
            ids = self._ids = {s: i for i, s in enumerate(self.names)}
            self._tags = None
        return ids

    def tag_ids(self) -> dict[str, int]:
        """An index that finds at least every START/END name of these rows.

        The full index while one exists (columns being built keep it);
        otherwise one over the tag rows only, built once, so columns
        kept for long never index their text runs.
        """
        ids = self._ids
        if ids is None:
            ids = self._tags
            if ids is None:
                names = self.names
                tags = set(compress(self.name_ids, self.kinds.translate(_IS_TAG)))
                ids = self._tags = {names[k]: k for k in tags}
        return ids

    def index_tags_only(self) -> None:
        """Keep only the tag names indexed, for columns that take no more
        rows (a registered document's): its slices share this index."""
        self._ids = None
        self.tag_ids()

    def intern(self, name: str) -> int:
        """The id of ``name`` in the string table, adding it if new."""
        ids = self.ids()
        k = ids.get(name)
        if k is None:
            k = ids[name] = len(self.names)
            self.names.append(name)
        return k

    def append(self, token: Token) -> None:
        kind, name, offset = token
        self.kinds.append(kind)
        self.name_ids.append(self.intern(name))
        self.offsets.append(offset)

    def extend(self, tokens: Iterable[Token]) -> None:
        """Append rows; other columns are copied column by column.

        Columns sharing this table are concatenated as they are;
        columns with their own table have the ids they use remapped.
        A token list is converted first: the benchmark's traced
        incremental-lexer wrapper (``perfbench/spans.py``) hands the
        stream's seal buffer lists of views.
        """
        if not isinstance(tokens, TokenColumns):
            tokens = TokenColumns.from_tokens(tokens)
        if tokens.names is self.names:
            ids = tokens.name_ids
        else:
            intern, names = self.intern, tokens.names
            remap = {k: intern(names[k]) for k in set(tokens.name_ids)}
            ids = array("i", map(remap.__getitem__, tokens.name_ids))
        self.kinds += tokens.kinds
        self.name_ids += ids
        self.offsets += tokens.offsets
        self._tags = None

    @classmethod
    def from_tokens(cls, tokens: Iterable[Token]) -> "TokenColumns":
        """Columns holding ``tokens`` (any ``(kind, name, offset)`` rows).

        The rows are transposed and interned by C-level iterators, so
        the conversion runs no Python frame per row.
        """
        rows = tokens if isinstance(tokens, (list, tuple)) else list(tokens)
        if not rows:
            return cls()
        kinds, names, offsets = zip(*rows)
        table = list(dict.fromkeys(names))
        ids = dict(zip(table, range(len(table))))
        n = len(rows)
        cols = cls(bytearray(kinds),
                   array("i", pack(f"{n}i", *map(ids.__getitem__, names))),
                   array("q", pack(f"{n}q", *offsets)), table)
        cols._ids = ids
        return cols

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = TokenColumns(self.kinds[i], self.name_ids[i],
                                self.offsets[i], self.names)
            part._ids = self._ids  # one table, one index
            part._tags = self._tags  # a superset of the slice's tags
            return part
        return _new(Token, (_KINDS[self.kinds[i]], self.names[self.name_ids[i]],
                            self.offsets[i]))

    def __iter__(self):
        # views are assembled by C-level iterators: no Python frame per row
        rows = zip(map(_KINDS.__getitem__, self.kinds),
                   map(self.names.__getitem__, self.name_ids), self.offsets)
        return map(_new, repeat(Token), rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TokenColumns, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None  # mutable, like a list

    def __reduce__(self):
        return (TokenColumns, (self.kinds, self.name_ids, self.offsets,
                               self.names))

    def __repr__(self) -> str:
        return f"TokenColumns({list(self)!r})"


def as_columns(tokens: Iterable[Token]) -> TokenColumns:
    """``tokens`` as :class:`TokenColumns`: columns pass through as they are."""
    if isinstance(tokens, TokenColumns):
        return tokens
    return TokenColumns.from_tokens(tokens)
