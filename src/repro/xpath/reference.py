"""Reference XPath evaluator over an in-memory document tree.

This is the *pre-parsing* strategy the paper contrasts with on-the-fly
transducers (Section 2.1): parse the whole document into a tree, then
answer queries by traversing it.  In this repository it serves three
roles:

* a **correctness oracle** — it implements the full fragment semantics
  (including reverse axes and predicates) directly, with none of the
  rewriting machinery, so integration and property tests can compare
  every streaming engine against it;
* the **pre-parse baseline** for the motivation benchmarks (memory
  footprint and locality arguments of Section 2.1);
* a pedagogical executable specification of the query semantics.

Matches are reported as the offsets (in code points) of the matched
elements' start tags — the same identity every streaming engine uses — so result sets
are directly comparable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..xmlstream.tokens import Token
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
)
from .parser import parse_xpath

__all__ = ["Element", "Document", "build_document", "evaluate", "evaluate_offsets"]


@dataclass(eq=False, slots=True)
class Element:
    """One element node of the parsed tree."""

    tag: str
    offset: int
    parent: "Element | None" = None
    children: list["Element"] = field(default_factory=list)
    text_parts: list[str] = field(default_factory=list)
    end_offset: int = -1

    @property
    def text(self) -> str:
        """Concatenated direct character data of the element."""
        return "".join(self.text_parts)

    def descendants(self) -> Iterable["Element"]:
        """Proper descendants in document order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def ancestors(self) -> Iterable["Element"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element(<{self.tag}>@{self.offset})"


@dataclass(slots=True)
class Document:
    """A parsed document: a virtual document node above the root element."""

    root: Element

    def all_elements(self) -> list[Element]:
        return [self.root, *self.root.descendants()]


def build_document(tokens: Iterable[Token]) -> Document:
    """Parse a token stream into a :class:`Document` tree.

    Reads :class:`Token` views (``lex`` yields them): the tree holds an
    object per element anyway, so columns would save nothing here.
    """
    root: Element | None = None
    stack: list[Element] = []
    for tok in tokens:
        if tok.is_start:
            node = Element(tok.name, tok.offset, parent=stack[-1] if stack else None)
            if stack:
                stack[-1].children.append(node)
            elif root is None:
                root = node
            else:
                raise ValueError("multiple document elements")
            stack.append(node)
        elif tok.is_end:
            if not stack or stack[-1].tag != tok.name:
                raise ValueError(f"mismatched end tag </{tok.name}> at offset {tok.offset}")
            stack[-1].end_offset = tok.offset
            stack.pop()
        else:
            if not stack:
                raise ValueError("character data outside the document element")
            stack[-1].text_parts.append(tok.name)
    if root is None or stack:
        raise ValueError("document is empty or has unclosed elements")
    return Document(root)


def evaluate(doc: Document, query: str | Path) -> list[Element]:
    """Evaluate ``query`` over ``doc``; matches in document order."""
    path = parse_xpath(query) if isinstance(query, str) else query
    result = _eval_steps(doc, path.steps, None)
    return sorted(result, key=lambda e: e.offset)


def evaluate_offsets(doc: Document, query: str | Path) -> list[int]:
    """Start-tag offsets of the matches (the cross-engine result format)."""
    return [e.offset for e in evaluate(doc, query)]


def _eval_steps(
    doc: Document, steps: tuple[Step, ...], context: Element | None
) -> set[Element]:
    """Evaluate a step chain.

    ``context`` is ``None`` for an absolute path (the virtual document
    node) and an element for relative (predicate) paths.
    """
    current: set[Element] = {context} if context is not None else set()
    at_document_node = context is None
    for step in steps:
        nxt: set[Element] = set()
        if at_document_node:
            # axis application from the virtual document node
            if step.axis == Axis.CHILD:
                candidates: Iterable[Element] = [doc.root]
            elif step.axis == Axis.DESCENDANT:
                candidates = doc.all_elements()
            else:
                candidates = []
            nxt.update(c for c in candidates if _name_matches(step.name, c.tag))
            at_document_node = False
        else:
            for node in current:
                nxt.update(_apply_axis(node, step))
        if step.predicates:
            nxt = {n for n in nxt if all(_eval_pred(doc, p, n) for p in step.predicates)}
        current = nxt
        if not current:
            break
    return current


def _apply_axis(node: Element, step: Step) -> Iterable[Element]:
    if step.axis == Axis.CHILD:
        candidates: Iterable[Element] = node.children
    elif step.axis == Axis.DESCENDANT:
        candidates = node.descendants()
    elif step.axis == Axis.PARENT:
        candidates = [node.parent] if node.parent is not None else []
    elif step.axis == Axis.ANCESTOR:
        candidates = node.ancestors()
    elif step.axis == Axis.SELF:
        candidates = [node]
    else:  # pragma: no cover - exhaustive
        raise ValueError(f"unknown axis {step.axis}")
    return (c for c in candidates if _name_matches(step.name, c.tag))


def _eval_pred(doc: Document, pred: Predicate, node: Element) -> bool:
    if isinstance(pred, PredAnd):
        return all(_eval_pred(doc, p, node) for p in pred.parts)
    if isinstance(pred, PredOr):
        return any(_eval_pred(doc, p, node) for p in pred.parts)
    if isinstance(pred, PredNot):
        return not _eval_pred(doc, pred.part, node)
    if isinstance(pred, PredPath):
        if pred.path.absolute:
            return bool(_eval_steps(doc, pred.path.steps, None))
        return bool(_eval_steps(doc, pred.path.steps, node))
    if isinstance(pred, PredCompare):
        targets = _eval_steps(doc, pred.path.steps, None if pred.path.absolute else node)
        if pred.op == "=":
            return any(t.text == pred.literal for t in targets)
        return any(t.text != pred.literal for t in targets)
    raise TypeError(f"unknown predicate {pred!r}")  # pragma: no cover


def _name_matches(test: str, tag: str) -> bool:
    return test == WILDCARD or test == tag
