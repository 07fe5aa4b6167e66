"""The JSON scanner — tokenise JSON arriving in pieces.

This is the one JSON scanning loop; the batch
:func:`~repro.jsonstream.tokenizer.tokenize_json` is this class fed the
whole text once and closed.  The XML side has the same shape
(:class:`repro.xmlstream.incremental.IncrementalLexer` and
:func:`repro.xmlstream.lexer.lex_range` share one loop).  The class
accepts the document in arbitrary pieces (network reads, file blocks),
emits each token as soon as its bytes are complete, and holds back
only the unfinished tail — memory stays bounded by the largest single
scalar token plus the structural frame stack, never the document.

However the text is cut into pieces, the token stream is the same
(offsets, decoded string values, array flattening, the virtual root
wrapper — everything; :mod:`~repro.jsonstream.tokenizer` describes the
mapping), a property the tests pin with a byte-split battery.
Malformed input raises :class:`JSONError` with the same message and
offset wherever the cuts fall, though possibly on a later ``feed()``
than the one that delivered the bad byte (a cut can delay the
evidence).

The parse state is explicit — a mode string, a frame stack and a
pending-wrapper slot — so :meth:`~IncrementalJSONTokenizer.state` can
snapshot it into plain JSON-safe values and
:meth:`~IncrementalJSONTokenizer.restore` can rebuild it, which is what
lets the streaming subsystem checkpoint a live tail mid-document.

Usage::

    tok = IncrementalJSONTokenizer()
    for piece in pieces:
        for token in tok.feed(piece):
            ...
    for token in tok.close():   # finalise trailing number, emit root END
        ...
"""

from __future__ import annotations

import re

from ..xmlstream.tokens import TokenColumns
from ..xpath.parser import is_name

__all__ = ["DEFAULT_ROOT", "IncrementalJSONTokenizer", "JSONError"]

DEFAULT_ROOT = "json"

_WS = " \t\r\n"
_NUMBER_RE = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?")

# Characters that can possibly extend a number token.  A maximal run of
# these is collected first, then matched against the number regex, so a
# number ends at the same byte however the text was cut.
_NUMBER_CHARS = frozenset("-+.eE0123456789")

_KEYWORDS = {"t": "true", "f": "false", "n": "null"}

_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b",
            "f": "\f", "n": "\n", "r": "\r", "t": "\t"}

# An unfinished scalar/key is re-scanned from its first byte on the
# next feed; these are the modes whose buffer tail starts on a token.
_SCALAR_MODES = ("scalar_string", "scalar_run", "key_string")

# the kind column's values (TokenKind.START, .END, .TEXT)
_START, _END, _TEXT = 0, 1, 2


class JSONError(ValueError):
    """Raised on malformed JSON or keys unusable as element names."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class IncrementalJSONTokenizer:
    """Streaming JSON tokeniser; see module docstring."""

    def __init__(self, root_name: str = DEFAULT_ROOT) -> None:
        self.root_name = root_name
        self._buf = ""
        self._base = 0          # global offset of _buf[0]
        self._length = 0        # total bytes fed
        self._closed = False
        self._mode = "init"
        # frame stack: ("obj", end_name_or_None) | ("arr", item_name).
        # An object frame remembers the wrapper END to emit at "}"; an
        # array frame only names its items (arrays flatten, no tokens).
        self._stack: list[tuple[str, str | None]] = []
        self._pending: tuple[str, int] | None = None  # wrapper for next value
        self._wrap: str | None = None                 # wrapper END for scalar
        self._key: tuple[str, int] | None = None      # parsed key awaiting ':'

    @property
    def buffered(self) -> int:
        """Bytes currently held back (bounded by the largest token)."""
        return len(self._buf)

    @property
    def depth(self) -> int:
        """Open containers (frame-stack depth) — bounded by nesting."""
        return len(self._stack)

    # ------------------------------------------------------------------

    def feed(self, piece: str) -> TokenColumns:
        """Consume a piece; return every token completed by it."""
        if self._closed:
            raise ValueError("feed() after close()")
        self._length += len(piece)
        buf = self._buf + piece
        out = TokenColumns()
        i = self._scan(buf, out, final=False)
        self._buf = buf[i:]
        self._base += i
        return out

    def close(self) -> TokenColumns:
        """Finalise: complete any trailing number, emit the root END."""
        if self._closed:
            raise ValueError("close() called twice")
        self._closed = True
        out = TokenColumns()
        i = self._scan(self._buf, out, final=True)
        self._buf = self._buf[i:]
        self._base += i
        if self._mode != "end":
            raise JSONError("unexpected end of input", self._length)
        out.append((_END, self.root_name, self._length))
        return out

    # -- state snapshot (checkpoint support) ---------------------------

    def state(self) -> dict:
        """The complete parse state as JSON-safe plain values."""
        return {
            "root": self.root_name,
            "buf": self._buf,
            "base": self._base,
            "length": self._length,
            "closed": self._closed,
            "mode": self._mode,
            "stack": [list(frame) for frame in self._stack],
            "pending": list(self._pending) if self._pending else None,
            "wrap": self._wrap,
            "key": list(self._key) if self._key else None,
        }

    @classmethod
    def restore(cls, state: dict) -> "IncrementalJSONTokenizer":
        """Rebuild a tokenizer from a :meth:`state` snapshot."""
        tok = cls(state["root"])
        tok._buf = state["buf"]
        tok._base = state["base"]
        tok._length = state["length"]
        tok._closed = state["closed"]
        tok._mode = state["mode"]
        tok._stack = [(kind, name) for kind, name in state["stack"]]
        tok._pending = tuple(state["pending"]) if state["pending"] else None
        tok._wrap = state["wrap"]
        tok._key = tuple(state["key"]) if state["key"] else None
        return tok

    # ------------------------------------------------------------------

    def _scan(self, buf: str, out: TokenColumns, final: bool) -> int:
        """Consume as much of ``buf`` as possible; return the stop index.

        The loop dispatches on ``self._mode``; a handler that cannot
        complete (token straddles the buffer end) leaves ``i`` on the
        token's first byte so the next feed re-scans it.
        """
        i = 0
        n = len(buf)
        while True:
            mode = self._mode
            if mode in _SCALAR_MODES:
                j = self._scan_token(buf, i, out, final)
                if j is None:
                    return i
                i = j
                continue
            # every other mode starts by skipping whitespace to a char
            while i < n and buf[i] in _WS:
                i += 1
            if i >= n:
                return i
            ch = buf[i]
            at = self._base + i
            if mode == "init":
                out.append((_START, self.root_name, at))
                self._mode = "value"
                self._pending = None
            elif mode == "value":
                i = self._begin_value(buf, i, out)
            elif mode in ("arr_first", "arr_item"):
                if ch == "]" and mode == "arr_first":
                    self._stack.pop()  # arrays flatten: no tokens
                    self._after_value()
                    i += 1
                else:
                    name = self._stack[-1][1]
                    self._pending = (name, at)
                    self._mode = "value"
            elif mode in ("obj_first", "obj_key"):
                if ch == "}" and mode == "obj_first":
                    self._close_object(at + 1, out)
                    i += 1
                elif ch == '"':
                    self._mode = "key_string"
                else:
                    raise JSONError("expected a string key", at)
            elif mode == "obj_colon":
                if ch != ":":
                    raise JSONError("expected ':' after key", at)
                self._pending = self._key
                self._key = None
                self._mode = "value"
                i += 1
            elif mode == "obj_sep":
                if ch == ",":
                    self._mode = "obj_key"
                elif ch == "}":
                    self._close_object(at + 1, out)
                else:
                    raise JSONError("expected ',' or '}' in object", at)
                i += 1
            elif mode == "arr_sep":
                if ch == ",":
                    self._mode = "arr_item"
                elif ch == "]":
                    self._stack.pop()
                    self._after_value()
                else:
                    raise JSONError("expected ',' or ']' in array", at)
                i += 1
            else:  # "end": only trailing whitespace is legal
                raise JSONError("trailing characters after the document", at)

    def _begin_value(self, buf: str, i: int, out: TokenColumns) -> int:
        """Dispatch on a value's first byte (``i`` is on a non-ws char)."""
        ch = buf[i]
        at = self._base + i
        pending, self._pending = self._pending, None
        if ch == "[":
            # arrays flatten: one wrapper per item, none for the array
            name = pending[0] if pending else self.root_name
            self._stack.append(("arr", name))
            self._mode = "arr_first"
            return i + 1
        if pending is not None:
            out.append((_START, pending[0], pending[1]))
        self._wrap = pending[0] if pending else None
        if ch == "{":
            self._stack.append(("obj", self._wrap))
            self._mode = "obj_first"
            return i + 1
        if ch == '"':
            self._mode = "scalar_string"
        elif ch in _NUMBER_CHARS or ch in _KEYWORDS:
            self._mode = "scalar_run"
        else:
            raise JSONError(f"unexpected character {ch!r}", at)
        return i  # scalar modes re-dispatch from the token's first byte

    def _scan_token(self, buf: str, i: int, out: TokenColumns,
                    final: bool) -> int | None:
        """Scan the held scalar/key starting at ``i``; None = incomplete."""
        if self._mode == "scalar_run":
            return self._scan_run(buf, i, out, final)
        res = self._scan_string(buf, i, final)
        if res is None:
            return None  # the closing quote has not arrived yet
        decoded, j = res
        at = self._base + i
        if self._mode == "key_string":
            if not is_name(decoded):
                raise JSONError(
                    f"member key {decoded!r} is not usable as an element name",
                    at,
                )
            self._key = (decoded, at)
            self._mode = "obj_colon"
            return j
        if decoded.strip():
            out.append((_TEXT, decoded, at + 1))
        self._finish_scalar(self._base + j, out)
        return j

    def _scan_run(self, buf: str, i: int, out: TokenColumns,
                  final: bool) -> int | None:
        """A number or keyword: collect the maximal run, then decide."""
        at = self._base + i
        word = _KEYWORDS.get(buf[i])
        if word is not None:
            end = i + len(word)
            if end > len(buf):
                if final or buf[i:] != word[: len(buf) - i]:
                    raise JSONError(f"unexpected character {buf[i]!r}", at)
                return None  # a keyword prefix may complete next feed
            if buf[i:end] != word:
                raise JSONError(f"unexpected character {buf[i]!r}", at)
            if word != "null":  # null maps to an empty element: no TEXT
                out.append((_TEXT, word, at))
            self._finish_scalar(self._base + end, out)
            return end
        j = i
        n = len(buf)
        while j < n and buf[j] in _NUMBER_CHARS:
            j += 1
        if j == n and not final:
            return None  # more digits may follow
        m = _NUMBER_RE.match(buf, i)
        if m is None or m.start() != i:
            raise JSONError(f"unexpected character {buf[i]!r}", at)
        out.append((_TEXT, m.group(), at))
        # any leftover run bytes (e.g. "1.2.3") re-enter as a separator
        # position and fail there
        self._finish_scalar(self._base + m.end(), out)
        return m.end()

    def _scan_string(self, buf: str, i: int,
                     final: bool) -> tuple[str, int] | None:
        """Decode the string starting at ``buf[i]`` (a quote); None if
        the closing quote has not arrived yet (an error if ``final``)."""
        i += 1
        parts: list[str] = []
        start = i
        n = len(buf)
        while i < n:
            ch = buf[i]
            if ch == '"':
                parts.append(buf[start:i])
                return "".join(parts), i + 1
            if ch == "\\":
                parts.append(buf[start:i])
                if i + 1 >= n:
                    break
                esc = buf[i + 1]
                if esc in _ESCAPES:
                    parts.append(_ESCAPES[esc])
                    i += 2
                elif esc == "u":
                    if i + 6 > n:
                        break
                    try:
                        parts.append(chr(int(buf[i + 2 : i + 6], 16)))
                    except ValueError:
                        raise JSONError(
                            "invalid \\u escape", self._base + i) from None
                    i += 6
                else:
                    raise JSONError(f"invalid escape \\{esc}", self._base + i)
                start = i
            else:
                i += 1
        if final:  # i is on an unfinished escape, or at the end
            raise JSONError("unterminated string", self._base + i)
        return None

    # ------------------------------------------------------------------

    def _finish_scalar(self, pos: int, out: TokenColumns) -> None:
        if self._wrap is not None:
            out.append((_END, self._wrap, pos))
            self._wrap = None
        self._after_value()

    def _close_object(self, pos: int, out: TokenColumns) -> None:
        name = self._stack.pop()[1]
        if name is not None:
            out.append((_END, name, pos))
        self._after_value()

    def _after_value(self) -> None:
        if not self._stack:
            self._mode = "end"
        elif self._stack[-1][0] == "obj":
            self._mode = "obj_sep"
        else:
            self._mode = "arr_sep"
