"""Reference lexers kept as test oracles.

These are the original batch implementations of the XML lexer, the
split phase's tag walk and the JSON tokenizer, kept verbatim: an
independent second implementation that the byte-split batteries, the
split battery and the error-parity tests compare the production code
against.  The library itself has one scanning loop per format
(:func:`repro.xmlstream.lexer._scan` and
:class:`repro.jsonstream.incremental.IncrementalJSONTokenizer`) and a
split that skips to its cut points with one regex match
(:func:`repro.xmlstream.chunking.split_chunks`); the code here is
never imported by it.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.jsonstream import DEFAULT_ROOT, JSONError
from repro.xmlstream import LexError
from repro.xmlstream.chunking import Chunk, split_at_offsets
from repro.xmlstream.tokens import Token, TokenKind

__all__ = [
    "oracle_lex",
    "oracle_lex_range",
    "oracle_split_chunks",
    "oracle_tag_offsets",
    "oracle_tokenize_json",
]

# -- XML ---------------------------------------------------------------

_WS = " \t\r\n"

_NAME_END = set(_WS) | {">", "/", "<"}


def oracle_lex(text: str) -> Iterator[Token]:
    """The whole document through :func:`oracle_lex_range`."""
    return oracle_lex_range(text, 0, len(text))


def oracle_lex_range(text: str, start: int, end: int) -> Iterator[Token]:
    """Lex ``text[start:end]``, yielding tokens with *global* offsets.

    ``start`` must be either ``0``, or the offset of a ``<`` character
    (a tag boundary, as produced by the chunking module).  ``end`` is an
    exclusive bound: a token that *begins* before ``end`` is emitted in
    full even if it extends past ``end`` (tags are never split across
    chunks); a token beginning at or after ``end`` belongs to the next
    chunk.  This convention makes per-chunk token streams partition the
    sequential stream exactly.
    """
    i = start
    n = len(text)
    if end > n:
        end = n
    while i < end:
        ch = text[i]
        if ch == "<":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "/":
                # end tag </name>
                j = _name_end(text, i + 2)
                name = text[i + 2 : j]
                if not name:
                    raise LexError("empty end-tag name", i)
                close = text.find(">", j)
                if close == -1:
                    raise LexError("unterminated end tag", i)
                yield Token(TokenKind.END, name, i)
                i = close + 1
            elif nxt == "!":
                i = _skip_markup_decl(text, i)
            elif nxt == "?":
                close = text.find("?>", i + 2)
                if close == -1:
                    raise LexError("unterminated processing instruction", i)
                i = close + 2
            else:
                # start tag or empty-element tag
                j = _name_end(text, i + 1)
                name = text[i + 1 : j]
                if not name:
                    raise LexError("empty start-tag name", i)
                k = _skip_attributes(text, j)
                if k >= n:
                    raise LexError("unterminated start tag", i)
                yield Token(TokenKind.START, name, i)
                if text[k] == "/":
                    # <name/> — emit a matching END immediately
                    yield Token(TokenKind.END, name, i)
                    i = k + 2
                else:
                    i = k + 1
        else:
            j = text.find("<", i)
            if j == -1:
                j = n
            content = text[i:j]
            if content.strip():
                yield Token(TokenKind.TEXT, content, i)
            i = j


def _name_end(text: str, i: int) -> int:
    """Return the index one past the last character of a tag name."""
    n = len(text)
    j = i
    while j < n and text[j] not in _NAME_END:
        j += 1
    return j


def _skip_attributes(text: str, i: int) -> int:
    """Scan past attributes; return the index of ``>`` or of ``/`` in ``/>``.

    Quoted attribute values may contain ``>`` — this routine respects
    quotes, which a naive ``find('>')`` would not.
    """
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == ">":
            return i
        if ch == "/" and i + 1 < n and text[i + 1] == ">":
            return i
        if ch in ('"', "'"):
            close = text.find(ch, i + 1)
            if close == -1:
                raise LexError("unterminated attribute value", i)
            i = close + 1
        else:
            i += 1
    return i


def _skip_markup_decl(text: str, i: int) -> int:
    """Skip a ``<!...>`` construct starting at ``i``; return next index.

    Handles comments, CDATA sections and DOCTYPE declarations with an
    internal subset (nested ``[ ... ]``).
    """
    n = len(text)
    if text.startswith("<!--", i):
        close = text.find("-->", i + 4)
        if close == -1:
            raise LexError("unterminated comment", i)
        return close + 3
    if text.startswith("<![CDATA[", i):
        close = text.find("]]>", i + 9)
        if close == -1:
            raise LexError("unterminated CDATA section", i)
        return close + 3
    # DOCTYPE (or other declaration): honour an internal subset
    depth = 0
    j = i + 2
    while j < n:
        ch = text[j]
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth <= 0:
            return j + 1
        j += 1
    raise LexError("unterminated markup declaration", i)



def oracle_split_chunks(text: str, n_chunks: int) -> list[Chunk]:
    """The split phase as one Python walk over every tag offset.

    Each cut point ``len(text) * k // n_chunks`` takes the first tag
    offset at or after it that the previous cut point did not take.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n = len(text)
    if n == 0:
        return []
    if n_chunks == 1:
        return [Chunk(0, 0, n)]

    targets = [n * k // n_chunks for k in range(1, n_chunks)]
    boundaries: list[int] = []
    it = oracle_tag_offsets(text)
    current = next(it, None)
    for t in targets:
        # advance the tag-offset iterator to the first offset >= t
        while current is not None and current < t:
            current = next(it, None)
        if current is None:
            break
        if current > 0 and (not boundaries or current > boundaries[-1]):
            boundaries.append(current)
        # consume it so the next target cannot reuse the same boundary
        current = next(it, None)

    return split_at_offsets(n, boundaries)


def oracle_tag_offsets(text: str) -> Iterator[int]:
    """Yield the offsets of top-level ``<`` characters.

    Offsets inside comments, CDATA sections, processing instructions,
    the DOCTYPE declaration and quoted attribute values are skipped.
    """
    i = 0
    n = len(text)
    while i < n:
        i = text.find("<", i)
        if i == -1:
            return
        nxt = text[i + 1] if i + 1 < n else ""
        if nxt == "!":
            i = _skip_markup_decl(text, i)
        elif nxt == "?":
            close = text.find("?>", i + 2)
            i = n if close == -1 else close + 2
        else:
            yield i
            if nxt == "/":
                close = text.find(">", i + 2)
                i = n if close == -1 else close + 1
            else:
                # skip the whole tag: a quoted attribute value may
                # contain '<', which must not become a boundary
                k = _skip_attributes(text, _name_end(text, i + 1))
                i = k + 1 if k < n else n

# -- JSON --------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][\w.\-]*\Z")
_NUMBER_RE = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?")


def oracle_tokenize_json(text: str, root_name: str = DEFAULT_ROOT) -> list[Token]:
    """Tokenise a JSON document (see module docstring for the mapping)."""
    scanner = _Scanner(text)
    out: list[Token] = [Token(TokenKind.START, root_name, scanner.skip_ws())]
    scanner.value(root_name, out, emit_wrapper=False)
    end = scanner.skip_ws_to_end()
    out.append(Token(TokenKind.END, root_name, end))
    return out


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> JSONError:
        return JSONError(message, self.pos)

    def skip_ws(self) -> int:
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i] in _WS:
            i += 1
        self.pos = i
        if i >= n:
            raise self.error("unexpected end of input")
        return i

    def skip_ws_to_end(self) -> int:
        """After the root value: only whitespace may remain."""
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i] in _WS:
            i += 1
        if i != n:
            self.pos = i
            raise self.error("trailing characters after the document")
        return i

    # ------------------------------------------------------------------

    def value(self, name: str, out: list[Token], emit_wrapper: bool, wrapper_at: int = -1) -> None:
        """Scan one value; optionally wrapped in START/END ``name`` tokens.

        ``wrapper_at`` is the offset for the START token (the key's
        quote for members, the item start for array items).
        """
        i = self.skip_ws()
        ch = self.text[i]
        if ch == "[":
            # arrays flatten: one wrapper per item, no wrapper for the
            # array itself
            self.pos = i + 1
            j = self.skip_ws()
            if self.text[j] == "]":
                self.pos = j + 1
                return
            while True:
                item_at = self.skip_ws()
                self.value(name, out, emit_wrapper=True, wrapper_at=item_at)
                j = self.skip_ws()
                if self.text[j] == ",":
                    self.pos = j + 1
                    continue
                if self.text[j] == "]":
                    self.pos = j + 1
                    return
                raise self.error("expected ',' or ']' in array")

        if emit_wrapper:
            out.append(Token(TokenKind.START, name, wrapper_at if wrapper_at >= 0 else i))

        if ch == "{":
            self.pos = i + 1
            self._object(out)
        elif ch == '"':
            start = i
            content = self._string()
            if content.strip():
                out.append(Token(TokenKind.TEXT, content, start + 1))
        elif self.text.startswith("true", i):
            self.pos = i + 4
            out.append(Token(TokenKind.TEXT, "true", i))
        elif self.text.startswith("false", i):
            self.pos = i + 5
            out.append(Token(TokenKind.TEXT, "false", i))
        elif self.text.startswith("null", i):
            self.pos = i + 4
        else:
            m = _NUMBER_RE.match(self.text, i)
            if m is None:
                raise self.error(f"unexpected character {ch!r}")
            self.pos = m.end()
            out.append(Token(TokenKind.TEXT, m.group(), i))

        if emit_wrapper:
            out.append(Token(TokenKind.END, name, self.pos))

    def _object(self, out: list[Token]) -> None:
        j = self.skip_ws()
        if self.text[j] == "}":
            self.pos = j + 1
            return
        while True:
            key_at = self.skip_ws()
            if self.text[key_at] != '"':
                raise self.error("expected a string key")
            key = self._string()
            if not _NAME_RE.match(key):
                raise JSONError(
                    f"member key {key!r} is not usable as an element name", key_at
                )
            j = self.skip_ws()
            if self.text[j] != ":":
                raise self.error("expected ':' after key")
            self.pos = j + 1
            self.value(key, out, emit_wrapper=True, wrapper_at=key_at)
            j = self.skip_ws()
            if self.text[j] == ",":
                self.pos = j + 1
                continue
            if self.text[j] == "}":
                self.pos = j + 1
                return
            raise self.error("expected ',' or '}' in object")

    def _string(self) -> str:
        """Scan a JSON string starting at ``self.pos`` (on the quote)."""
        text = self.text
        i = self.pos
        assert text[i] == '"'
        i += 1
        parts: list[str] = []
        start = i
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == '"':
                parts.append(text[start:i])
                self.pos = i + 1
                return "".join(parts)
            if ch == "\\":
                parts.append(text[start:i])
                if i + 1 >= n:
                    break
                esc = text[i + 1]
                simple = {'"': '"', "\\": "\\", "/": "/", "b": "\b",
                          "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
                if esc in simple:
                    parts.append(simple[esc])
                    i += 2
                elif esc == "u":
                    if i + 6 > n:
                        break
                    try:
                        parts.append(chr(int(text[i + 2 : i + 6], 16)))
                    except ValueError:
                        self.pos = i
                        raise self.error("invalid \\u escape") from None
                    i += 6
                else:
                    self.pos = i
                    raise self.error(f"invalid escape \\{esc}")
                start = i
            else:
                i += 1
        self.pos = i
        raise self.error("unterminated string")
