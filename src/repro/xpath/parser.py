"""Recursive-descent parser for the supported XPath fragment.

Grammar (whitespace is insignificant between tokens)::

    query     := absolute-path
    path      := ('/' | '//')? steps            -- leading sep => absolute
    steps     := step (('/' | '//') step)*
    step      := (axis '::')? nametest pred*
    axis      := 'child' | 'descendant' | 'descendant-or-self'
               | 'parent' | 'ancestor' | 'self'
    nametest  := NAME | '*' | '.'
    pred      := '[' or-expr ']'
    or-expr   := and-expr ('or' and-expr)*
    and-expr  := unary ('and' unary)*
    unary     := 'not' '(' or-expr ')' | '(' or-expr ')' | path

``//`` is parsed as the following step having the DESCENDANT axis
(desugaring ``descendant-or-self::node()/child::x`` to
``descendant::x``, which is equivalent for name tests).  ``.`` parses
as ``self::*``.
"""

from __future__ import annotations

import re
import unicodedata

from .ast import (
    Axis,
    Path,
    PredAnd,
    PredCompare,
    PredNot,
    PredOr,
    PredPath,
    Predicate,
    Step,
    WILDCARD,
    XPathError,
)

__all__ = ["is_name", "name_end", "parse_xpath", "parse_relative_path"]

#: the name characters ``re`` can class: alphanumerics of any script,
#: ``_``, ``.``, ``-`` and ``·``; combining marks are added in name_end
_NAME_BODY_RE = re.compile(r"[\w.\-\u00b7]*")


def name_end(text: str, pos: int) -> int:
    """End of the name that starts at ``pos``, or ``pos`` if none does.

    A name is a letter of any script (``str.isalpha``) or ``_``, then
    any of: letters and digits of any script (``str.isalnum``),
    combining marks (Unicode category M*, e.g. a decomposed accent or
    a Devanagari vowel sign), ``_``, ``.``, ``-`` and ``·``.
    """
    if pos >= len(text) or not (text[pos].isalpha() or text[pos] == "_"):
        return pos
    end = _NAME_BODY_RE.match(text, pos + 1).end()
    while end < len(text) and unicodedata.category(text[end])[0] == "M":
        end = _NAME_BODY_RE.match(text, end + 1).end()
    return end


def is_name(text: str) -> bool:
    """Whether all of ``text`` is one name (see :func:`name_end`)."""
    return bool(text) and name_end(text, 0) == len(text)

_AXES = {
    "child": Axis.CHILD,
    "descendant": Axis.DESCENDANT,
    "descendant-or-self": Axis.DESCENDANT,
    "parent": Axis.PARENT,
    "ancestor": Axis.ANCESTOR,
    "ancestor-or-self": Axis.ANCESTOR,
    "self": Axis.SELF,
}



def parse_xpath(text: str) -> Path:
    """Parse an absolute XPath query string."""
    parser = _Parser(text)
    path = parser.parse_path(require_absolute=True)
    parser.expect_end()
    return path


def parse_relative_path(text: str) -> Path:
    """Parse a relative path (as found inside predicates)."""
    parser = _Parser(text)
    path = parser.parse_path(require_absolute=False)
    parser.expect_end()
    return path


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # -- plumbing ------------------------------------------------------

    def error(self, message: str) -> XPathError:
        return XPathError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def accept(self, s: str) -> bool:
        if self.startswith(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str) -> None:
        if not self.accept(s):
            raise self.error(f"expected {s!r}")

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing characters")

    def accept_keyword(self, word: str) -> bool:
        """Accept ``word`` only when not a prefix of a longer name."""
        self.skip_ws()
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos):
            if end >= len(self.text) or not (self.text[end].isalnum() or self.text[end] in "_.-"):
                self.pos = end
                return True
        return False

    # -- grammar ---------------------------------------------------------

    def parse_path(self, require_absolute: bool) -> Path:
        absolute = False
        first_axis: Axis | None = None
        if self.accept("//"):
            absolute = True
            first_axis = Axis.DESCENDANT
        elif self.accept("/"):
            absolute = True
            first_axis = Axis.CHILD
        if require_absolute and not absolute:
            raise self.error("query must be an absolute path (start with / or //)")

        steps = [self.parse_step(first_axis or Axis.CHILD)]
        while True:
            if self.accept("//"):
                steps.append(self.parse_step(Axis.DESCENDANT))
            elif self.accept("/"):
                steps.append(self.parse_step(Axis.CHILD))
            else:
                break
        return Path(tuple(steps), absolute=absolute)

    def parse_step(self, default_axis: Axis) -> Step:
        axis = default_axis
        self.skip_ws()
        end = name_end(self.text, self.pos)
        if end > self.pos and self.text.startswith("::", end):
            axis_name = self.text[self.pos:end]
            mapped = _AXES.get(axis_name)
            if mapped is None:
                raise self.error(f"unsupported axis {axis_name!r}")
            if default_axis == Axis.DESCENDANT:
                # '//child::x' desugars to descendant::x; other axes
                # after '//' are outside the supported fragment.
                if mapped not in (Axis.CHILD, Axis.DESCENDANT):
                    raise self.error(f"'//' before axis {axis_name!r} is not supported")
                axis = Axis.DESCENDANT
            else:
                axis = mapped
            self.pos = end + 2
            end = name_end(self.text, self.pos)

        if self.accept("*"):
            name = WILDCARD
        elif self.accept("."):
            name = WILDCARD
            axis = Axis.SELF
        elif end > self.pos:
            name = self.text[self.pos:end]
            self.pos = end
        else:
            raise self.error("expected a name test")

        predicates: list[Predicate] = []
        while self.startswith("["):
            self.expect("[")
            predicates.append(self.parse_or_expr())
            self.expect("]")
        return Step(axis, name, tuple(predicates))

    def parse_or_expr(self) -> Predicate:
        parts = [self.parse_and_expr()]
        while self.accept_keyword("or"):
            parts.append(self.parse_and_expr())
        return parts[0] if len(parts) == 1 else PredOr(tuple(parts))

    def parse_and_expr(self) -> Predicate:
        parts = [self.parse_unary()]
        while self.accept_keyword("and"):
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else PredAnd(tuple(parts))

    def parse_unary(self) -> Predicate:
        if self.accept_keyword("not"):
            self.expect("(")
            inner = self.parse_or_expr()
            self.expect(")")
            return PredNot(inner)
        if self.startswith("("):
            self.expect("(")
            inner = self.parse_or_expr()
            self.expect(")")
            return inner
        path = self.parse_path(require_absolute=False)
        for op in ("!=", "="):
            if self.accept(op):
                return PredCompare(path, op, self.parse_literal())
        return PredPath(path)

    def parse_literal(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in "\"'":
            raise self.error("expected a quoted string literal")
        quote = self.text[self.pos]
        close = self.text.find(quote, self.pos + 1)
        if close == -1:
            raise self.error("unterminated string literal")
        value = self.text[self.pos + 1 : close]
        self.pos = close + 1
        return value
