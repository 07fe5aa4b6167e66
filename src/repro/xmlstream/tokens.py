"""Token types produced by the streaming XML lexer.

The pushdown-transducer pipeline never builds a DOM: the lexer turns raw
XML text into a flat stream of :class:`Token` values (start tags, end
tags, and text), and every downstream component (sequential transducer,
PP-Transducer baseline, GAP transducer) consumes that stream.

A :class:`Token` is a named tuple ``(kind, name, offset)``, so it also
equals (and hashes like) that plain tuple; the lexer builds one per tag
and text run with ``tuple.__new__``, the cheapest construction Python
offers for an immutable record.

Tokens carry the byte offset of their first character in the original
document.  Offsets serve two purposes:

* **chunk framing** — the parallel split phase cuts the document at tag
  boundaries, and each worker lexes its own byte range; offsets are
  global, so match positions from different workers can be merged
  without coordination;
* **match identity** — a match is reported as the offset/index of the
  element's start tag, which also serves as the join key for the
  predicate filter phase.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["TokenKind", "Token", "start_tag", "end_tag", "text_token"]


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

    Immutable, hashable, equal by value and picklable (the process
    backend and the registry's token cache ship tokens by pickle).

    Attributes
    ----------
    kind:
        One of :class:`TokenKind`.
    name:
        Element name for START/END tokens; the text content for TEXT
        tokens.
    offset:
        Byte offset of the token's first character in the document
        (the ``<`` for tags, the first character for text).
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
