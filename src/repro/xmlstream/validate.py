"""Well-formedness checking and DTD validation of token streams.

Two levels of checking, both stream-based (no tree is built):

* :func:`check_well_formed` — tags balance and nest properly, exactly
  one document element;
* :class:`Validator` — additionally checks each element's children
  against its declared content model.  Content models are compiled once
  into small Glushkov NFAs over child-element names (with ``#PCDATA``
  handled out-of-band, since mixed content is orderless in DTDs) and
  simulated with state sets, so validation is a single pass with
  per-element O(children × model-size) work.

The validator is what lets the test suite assert that every generated
benchmark document *actually conforms* to its DTD — a precondition for
the non-speculative soundness property (GAP-NonSpec may only prune
paths that are infeasible for *valid* inputs).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..grammar.model import (
    AnyContent,
    Choice,
    ContentModel,
    Empty,
    Grammar,
    Name,
    PCData,
    Repeat,
    Seq,
    UNBOUNDED,
)
from .tokens import Token

__all__ = [
    "ValidationError",
    "check_well_formed",
    "Validator",
    "ContentModelNFA",
    "compile_content_model",
]


class ValidationError(ValueError):
    """Raised when a token stream violates well-formedness or the DTD."""

    def __init__(self, message: str, offset: int = -1) -> None:
        if offset >= 0:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


def check_well_formed(tokens: Iterable[Token]) -> int:
    """Check nesting/balance; return the number of element tokens seen.

    Raises :class:`ValidationError` on the first violation.
    """
    stack: list[str] = []
    seen_root = False
    count = 0
    for tok in tokens:
        if tok.is_start:
            count += 1
            if not stack:
                if seen_root:
                    raise ValidationError("multiple document elements", tok.offset)
                seen_root = True
            stack.append(tok.name)
        elif tok.is_end:
            count += 1
            if not stack:
                raise ValidationError(f"unmatched end tag </{tok.name}>", tok.offset)
            if stack[-1] != tok.name:
                raise ValidationError(
                    f"mismatched end tag </{tok.name}>, expected </{stack[-1]}>", tok.offset
                )
            stack.pop()
        else:
            if not stack:
                raise ValidationError("character data outside the document element", tok.offset)
    if stack:
        raise ValidationError(f"unclosed element <{stack[-1]}> at end of input")
    if not seen_root:
        raise ValidationError("empty document")
    return count


# ---------------------------------------------------------------------------
# Content-model NFAs (Glushkov construction)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ContentModelNFA:
    """A position NFA over child-element names for one content model.

    State 0 is the start state; states ``1..n`` are the Glushkov
    positions (occurrences of element names in the model).
    ``transitions[state]`` maps a child name to the frozenset of
    successor positions.  ``accepting`` is the set of states in which
    the child sequence may legally end.
    """

    transitions: list[dict[str, frozenset[int]]]
    accepting: frozenset[int]
    allows_pcdata: bool
    allows_any: bool = False

    def initial(self) -> frozenset[int]:
        return frozenset((0,))

    def step(self, states: frozenset[int], child: str) -> frozenset[int]:
        out: set[int] = set()
        for s in states:
            out |= self.transitions[s].get(child, _EMPTY)
        return frozenset(out)

    def is_accepting(self, states: frozenset[int]) -> bool:
        return bool(states & self.accepting)


_EMPTY: frozenset[int] = frozenset()


@dataclass(slots=True)
class _Frag:
    """Glushkov attributes of a sub-model: nullable / first / last sets."""

    nullable: bool
    first: frozenset[int]
    last: frozenset[int]


def compile_content_model(model: ContentModel) -> ContentModelNFA:
    """Compile a content model into its Glushkov :class:`ContentModelNFA`.

    The construction is the textbook one: number every :class:`Name`
    occurrence (a *position*), compute nullable/first/last/follow sets
    recursively, then wire ``start → first`` and ``last(p) → follow(p)``
    edges labelled by position names.  It is exact for the full DTD
    content-model language, including nested repetitions.
    """
    if isinstance(model, AnyContent):
        return ContentModelNFA(
            transitions=[{}],
            accepting=frozenset((0,)),
            allows_pcdata=True,
            allows_any=True,
        )

    names: list[str] = [""]  # names[p] = element name at position p; index 0 unused
    follow: list[set[int]] = [set()]  # follow[p]

    def walk(m: ContentModel) -> _Frag:
        if isinstance(m, Name):
            names.append(m.name)
            follow.append(set())
            p = len(names) - 1
            return _Frag(False, frozenset((p,)), frozenset((p,)))
        if isinstance(m, (PCData, Empty, AnyContent)):
            return _Frag(True, _EMPTY, _EMPTY)
        if isinstance(m, Seq):
            acc = _Frag(True, _EMPTY, _EMPTY)
            for part in m.parts:
                f = walk(part)
                for p in acc.last:
                    follow[p] |= f.first
                acc = _Frag(
                    acc.nullable and f.nullable,
                    acc.first | f.first if acc.nullable else acc.first,
                    f.last | acc.last if f.nullable else f.last,
                )
            return acc
        if isinstance(m, Choice):
            nullable = False
            first: frozenset[int] = _EMPTY
            last: frozenset[int] = _EMPTY
            for part in m.parts:
                f = walk(part)
                nullable = nullable or f.nullable
                first |= f.first
                last |= f.last
            return _Frag(nullable, first, last)
        if isinstance(m, Repeat):
            f = walk(m.part)
            if m.hi == UNBOUNDED:
                for p in f.last:
                    follow[p] |= f.first
            return _Frag(f.nullable or m.lo == 0, f.first, f.last)
        raise TypeError(f"unknown content model node {m!r}")

    frag = walk(model)

    n_states = len(names)
    transitions: list[dict[str, frozenset[int]]] = [dict() for _ in range(n_states)]
    start_moves: dict[str, set[int]] = {}
    for p in frag.first:
        start_moves.setdefault(names[p], set()).add(p)
    transitions[0] = {name: frozenset(ps) for name, ps in start_moves.items()}
    for p in range(1, n_states):
        moves: dict[str, set[int]] = {}
        for q in follow[p]:
            moves.setdefault(names[q], set()).add(q)
        transitions[p] = {name: frozenset(ps) for name, ps in moves.items()}

    accepting = set(frag.last)
    if frag.nullable:
        accepting.add(0)
    return ContentModelNFA(
        transitions=transitions,
        accepting=frozenset(accepting),
        allows_pcdata=model.allows_pcdata(),
    )


class Validator:
    """Validate a token stream against a :class:`Grammar`.

    Undeclared elements are rejected when ``strict`` is true; for
    *partial* grammars (``strict=False``) an undeclared element and its
    entire subtree are accepted as-is — useful when sanity-checking
    speculative-mode corpora against extracted grammars.
    """

    def __init__(self, grammar: Grammar, strict: bool = True) -> None:
        self.grammar = grammar
        self.strict = strict
        self._nfas = {
            name: compile_content_model(decl.model) for name, decl in grammar.elements.items()
        }

    def validate(self, tokens: Iterable[Token]) -> int:
        """Validate; return the number of elements checked.

        Raises :class:`ValidationError` on the first violation (which
        includes well-formedness violations).
        """
        # stack entries: (tag, nfa-or-None, state-set)
        stack: list[tuple[str, ContentModelNFA | None, frozenset[int]]] = []
        checked = 0
        seen_root = False
        for tok in tokens:
            if tok.is_start:
                if not stack:
                    if seen_root:
                        raise ValidationError("multiple document elements", tok.offset)
                    seen_root = True
                    if tok.name != self.grammar.root:
                        raise ValidationError(
                            f"document element <{tok.name}> does not match DOCTYPE root "
                            f"<{self.grammar.root}>",
                            tok.offset,
                        )
                else:
                    tag, nfa, states = stack[-1]
                    if nfa is not None and not nfa.allows_any:
                        nxt = nfa.step(states, tok.name)
                        if not nxt:
                            raise ValidationError(
                                f"element <{tok.name}> not allowed here inside <{tag}>", tok.offset
                            )
                        stack[-1] = (tag, nfa, nxt)
                child_nfa = self._nfas.get(tok.name)
                if child_nfa is None and self.strict:
                    raise ValidationError(f"undeclared element <{tok.name}>", tok.offset)
                stack.append(
                    (tok.name, child_nfa, child_nfa.initial() if child_nfa else frozenset())
                )
            elif tok.is_end:
                if not stack or stack[-1][0] != tok.name:
                    expected = stack[-1][0] if stack else None
                    raise ValidationError(
                        f"mismatched end tag </{tok.name}>, expected </{expected}>", tok.offset
                    )
                tag, nfa, states = stack.pop()
                if nfa is not None and not nfa.allows_any and not nfa.is_accepting(states):
                    raise ValidationError(f"element <{tag}> has incomplete content", tok.offset)
                checked += 1
            else:  # text
                if not stack:
                    raise ValidationError(
                        "character data outside the document element", tok.offset
                    )
                tag, nfa, _states = stack[-1]
                if nfa is not None and not nfa.allows_pcdata:
                    raise ValidationError(f"character data not allowed inside <{tag}>", tok.offset)
        if stack:
            raise ValidationError(f"unclosed element <{stack[-1][0]}> at end of input")
        if not seen_root:
            raise ValidationError("empty document")
        return checked
