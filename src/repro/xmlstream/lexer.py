"""Streaming XML lexer with arbitrary-offset start support.

This is the lexical substrate for the whole system.  It is intentionally
a *lexer*, not a parser: it recognises start tags, end tags, empty
element tags, text, comments, processing instructions, CDATA sections
and the DOCTYPE prolog, and emits the flat token stream the pushdown
transducers consume, as :class:`~repro.xmlstream.tokens.TokenColumns`.
It never builds a tree.

There is one scanning loop, :func:`_scan`, and three ways to drive it.
:func:`lex_range` runs it to the end of a range of a complete text
(``final=True``: an unfinished construct is an error) and returns the
range's columns; :func:`lex` runs it window by window and yields
:class:`~repro.xmlstream.tokens.Token` views lazily;
:class:`~repro.xmlstream.incremental.IncrementalLexer` runs it over the
pieces of a stream (``final=False``: an unfinished construct is held
back until more text arrives) and once more when the stream closes.  A
batch run is a stream that arrives in one piece.

``_scan`` matches the well-formed constructs that make up nearly all of
a document (text runs, start, empty-element and end tags) with one
compiled pattern and appends each token to the three columns,
interning its name in the columns' string table.  Comments, CDATA
sections, processing instructions, the DOCTYPE, unfinished constructs
and malformed markup take the character-level step
:func:`_scan_construct`, so every :class:`LexError` and every hold-back
point is the character-level one.

Two properties matter for parallelization:

* **restartability** — :func:`lex_range` can start lexing at any byte
  offset that is a tag boundary (the position of a ``<``).  The split
  phase (:mod:`repro.xmlstream.chunking`) aligns chunk boundaries to
  such positions, so each worker lexes its chunk independently and the
  concatenation of per-chunk token streams equals the sequential token
  stream (a property pinned by tests);
* **single pass, flat output** — the lexer walks the text once; it
  allocates the columns' arrays and one string per distinct name or
  text run, never an object per token.

Scope notes (documented simplifications, adequate for the benchmark
corpus and the paper's model):

* attributes are scanned past but not materialised — XPath attribute
  axes are outside the supported fragment (as in the paper);
* entity references in text are kept verbatim;
* whitespace-only text between tags is not emitted (the transducer
  treats text via plain transitions only, so insignificant whitespace
  would only add overhead).
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .tokens import Token, TokenColumns

__all__ = [
    "LexError",
    "lex",
    "lex_range",
    "iter_tag_offsets",
    "tag_offset_at_or_after",
]

_WS = " \t\r\n"

_NAME_END = set(_WS) | {">", "/", "<"}

# the kind column's values (TokenKind.START, .END, .TEXT)
_START, _END, _TEXT = 0, 1, 2

# lex scans in windows that double from the first size to the cap
_FIRST_WINDOW = 256
_MAX_WINDOW = 1 << 16


class LexError(ValueError):
    """Raised on malformed XML at the lexical level.

    Carries the byte offset where the problem was detected so that error
    messages can point into multi-megabyte generated documents.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def lex(text: str, start: int = 0) -> Iterator[Token]:
    """Yield the tokens of ``text[start:]`` as :class:`Token` views, lazily.

    The tokens of ``lex_range(text, start, len(text))``, scanned window
    by window: a consumer that stops early (such as
    :func:`repro.core.engine.element_at`) pays for what it reads, and a
    whole-document consumer (the DOM reference) holds one window's
    columns at a time, not the document's.
    """
    end = len(text)
    window = _FIRST_WINDOW
    while start < end:
        out = TokenColumns()
        start = _scan(text, start, min(start + window, end), 0, True, out)
        yield from out
        window = min(2 * window, _MAX_WINDOW)


def lex_range(text: str, start: int, end: int) -> TokenColumns:
    """Lex ``text[start:end]`` into columns with *global* offsets.

    ``start`` must be either ``0``, or the offset of a ``<`` character
    (a tag boundary, as produced by the chunking module).  ``end`` is an
    exclusive bound: a token that *begins* before ``end`` is emitted in
    full even if it extends past ``end`` (tags are never split across
    chunks); a token beginning at or after ``end`` belongs to the next
    chunk.  This convention makes per-chunk token streams partition the
    sequential stream exactly.
    """
    out = TokenColumns()
    _scan(text, start, min(end, len(text)), 0, True, out)
    return out


# The well-formed constructs that make up almost all of a document, one
# alternative each: a text run (group 1), a start or empty-element tag
# (name in group 2, the ``/`` of ``/>`` in group 3) and an end tag (name
# in group 4).  Tag names stop where ``_name_end`` stops them, and the
# attribute loop skips quoted values exactly as ``_skip_attributes``
# does.  Any other ``<`` (a comment, CDATA section, processing
# instruction or DOCTYPE, or a tag that is malformed or not finished
# yet) matches the last, bare alternative and takes the character-level
# step in ``_scan_construct``.
_TOKEN = re.compile(
    r"""([^<]+)
      | <([^ \t\r\n>/<!?][^ \t\r\n>/<]*)
         (?:[^>/"']|/(?!>)|"[^"]*"|'[^']*')*(/?)>
      | </([^ \t\r\n>/<]+)[^>]*>
      | <""",
    re.X,
)


def _scan(text: str, i: int, end: int, base: int, final: bool,
          out: TokenColumns) -> int:
    """Append the tokens that begin in ``text[i:end]`` to ``out``.

    Returns the index where scanning stopped.  ``base`` is the global
    offset of ``text[0]``.  A construct left unfinished by the end of
    ``text`` raises :class:`LexError` when ``final`` is true; otherwise
    scanning stops at the construct's first character, so a stream can
    hold ``text[stop:]`` back until more of it arrives.
    """
    n = len(text)
    kind = out.kinds.append
    name_id = out.name_ids.append
    offset = out.offsets.append
    names = out.names
    ids = out.ids()
    known = ids.get
    while i < end:
        for m in _TOKEN.finditer(text, i):
            at = m.start()
            if at >= end:
                return at
            g = m.lastindex
            if g == 1:
                if not final and m.end() == n:
                    return at  # text may continue in the next piece
                name = m[1]
                if name.isspace():
                    continue
                kind(_TEXT)
            elif g == 3:
                name = m[2]
                kind(_START)
                if m[3]:
                    # <name/> — a matching END at the same offset
                    k = known(name)
                    if k is None:
                        k = ids[name] = len(names)
                        names.append(name)
                    name_id(k)
                    offset(base + at)
                    kind(_END)
            elif g == 4:
                name = m[4]
                kind(_END)
            else:
                i = _scan_construct(text, at, base, final, out)
                if i < 0:
                    return -i - 1  # held back: not finished yet
                break
            k = known(name)
            if k is None:
                k = ids[name] = len(names)
                names.append(name)
            name_id(k)
            offset(base + at)
        else:
            return n
    return i


def _scan_construct(text: str, i: int, base: int, final: bool,
                    out: TokenColumns) -> int:
    """The character-level step for the construct whose ``<`` is at ``i``.

    Returns the index just past it, after appending any token it
    forms.  A construct left unfinished by the end of ``text`` raises
    :class:`LexError` when ``final`` is true, and otherwise returns
    ``-i - 1`` so that :func:`_scan` stops at ``i``.
    """
    n = len(text)
    nxt = text[i + 1] if i + 1 < n else ""
    if nxt == "/":
        # end tag </name>
        close = text.find(">", i + 2)
        if close == -1 and not final:
            return -i - 1
        name = text[i + 2 : _name_end(text, i + 2)]
        if not name:
            raise LexError("empty end-tag name", base + i)
        if close == -1:
            raise LexError("unterminated end tag", base + i)
        out.append((_END, name, base + i))
        return close + 1
    if nxt == "!":
        try:
            return _skip_markup_decl(text, i, base)
        except LexError:
            if final:
                raise
            return -i - 1
    if nxt == "?":
        close = text.find("?>", i + 2)
        if close == -1:
            if final:
                raise LexError("unterminated processing instruction", base + i)
            return -i - 1
        return close + 2
    # start tag or empty-element tag
    j = _name_end(text, i + 1)
    if j >= n and not final:
        return -i - 1  # the name may continue
    name = text[i + 1 : j]
    if not name:
        raise LexError("empty start-tag name", base + i)
    try:
        k = _skip_attributes(text, j, base)
    except LexError:
        if final:
            raise
        return -i - 1  # an attribute value is split across pieces
    if k >= n:
        if final:
            raise LexError("unterminated start tag", base + i)
        return -i - 1  # '>' or a split '/>' has not arrived yet
    out.append((_START, name, base + i))
    if text[k] == "/":
        # <name/> — emit a matching END immediately
        out.append((_END, name, base + i))
        return k + 2
    return k + 1


def iter_tag_offsets(text: str, start: int = 0) -> Iterator[int]:
    """Yield offsets of top-level ``<`` characters from ``start`` on.

    Offsets inside comments, CDATA sections, processing instructions,
    the DOCTYPE declaration and quoted attribute values are skipped —
    those are positions a chunk boundary must not land on.  Used by the
    split phase.
    """
    i = start
    n = len(text)
    while i < n:
        i = text.find("<", i)
        if i == -1:
            return
        if text[i + 1 : i + 2] not in ("!", "?"):
            yield i
        i = _skip_construct(text, i)


# Whole constructs, as _skip_construct skips them; markup declarations
# (DOCTYPE) and malformed constructs are left to it.  A construct cut by
# ``endpos`` is left unmatched rather than half consumed.  Backtracking
# stays linear: nothing follows the outer repeat, a tag name is followed
# only by a character that cannot extend it, and the attribute
# alternatives start with distinct characters.
_CONSTRUCTS = re.compile(
    r"""(?:
        [^<]+                                        # character data
      | <(?![!?/])[^ \t\r\n>/<]*                      # start tag: name,
        (?:>|(?=[ \t\r\n</])                          # then attributes
          (?:[^>/"']|/(?!>)|"[^"]*"|'[^']*')*/?>)
      | </[^>]*>                                     # end tag
      | <!--.*?-->                                   # comment
      | <!\[CDATA\[.*?\]\]>                          # CDATA section
      | <\?.*?\?>                                    # processing instruction
    )*""",
    re.S | re.X,
)


def tag_offset_at_or_after(text: str, pos: int, target: int) -> int | None:
    """Return the first element-tag offset ``>= target``, or ``None``.

    Equal to the first :func:`iter_tag_offsets` offset ``>= target``
    when ``pos <= target`` is a construct boundary (0 or a tag offset).
    The whole constructs between ``pos`` and ``target`` are skipped by
    one regex match in C; a construct it does not cover (a DOCTYPE, or a
    malformed one) takes one :func:`_skip_construct` step, and the
    construct that straddles ``target`` is walked by
    :func:`iter_tag_offsets`, so malformed input raises the same
    :class:`LexError` a full walk does.  Used by the split phase.
    """
    while True:
        pos = _CONSTRUCTS.match(text, pos, target).end()
        if pos >= target:
            break
        after = _skip_construct(text, pos)
        if after > target:
            break
        pos = after
    for off in iter_tag_offsets(text, pos):
        if off >= target:
            return off
    return None


def _skip_construct(text: str, i: int) -> int:
    """Return the index just past the construct whose ``<`` is at ``i``.

    A tag, comment, CDATA section, processing instruction or markup
    declaration.  Quoted attribute values may contain ``<`` and ``>``,
    so a start tag is skipped attribute by attribute.  An unterminated
    tag or processing instruction runs to the end of ``text``; an
    unterminated attribute value, comment, CDATA section or declaration
    raises :class:`LexError`.
    """
    n = len(text)
    nxt = text[i + 1] if i + 1 < n else ""
    if nxt == "!":
        return _skip_markup_decl(text, i)
    if nxt == "?":
        close = text.find("?>", i + 2)
        return n if close == -1 else close + 2
    if nxt == "/":
        close = text.find(">", i + 2)
        return n if close == -1 else close + 1
    k = _skip_attributes(text, _name_end(text, i + 1))
    if k >= n:
        return n
    return k + 2 if text[k] == "/" else k + 1


def _name_end(text: str, i: int) -> int:
    """Return the index one past the last character of a tag name."""
    n = len(text)
    j = i
    while j < n and text[j] not in _NAME_END:
        j += 1
    return j


def _skip_attributes(text: str, i: int, base: int = 0) -> int:
    """Scan past attributes; return the index of ``>`` or of ``/`` in ``/>``.

    Quoted attribute values may contain ``>`` — this routine respects
    quotes, which a naive ``find('>')`` would not.  ``base`` is the
    global offset of ``text[0]``, for error messages.
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
                raise LexError("unterminated attribute value", base + i)
            i = close + 1
        else:
            i += 1
    return i


def _skip_markup_decl(text: str, i: int, base: int = 0) -> int:
    """Skip a ``<!...>`` construct starting at ``i``; return next index.

    Handles comments, CDATA sections and DOCTYPE declarations with an
    internal subset (nested ``[ ... ]``).  ``base`` is the global offset
    of ``text[0]``, for error messages.
    """
    n = len(text)
    if text.startswith("<!--", i):
        close = text.find("-->", i + 4)
        if close == -1:
            raise LexError("unterminated comment", base + i)
        return close + 3
    if text.startswith("<![CDATA[", i):
        close = text.find("]]>", i + 9)
        if close == -1:
            raise LexError("unterminated CDATA section", base + i)
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
    raise LexError("unterminated markup declaration", base + i)
