"""Speculative-mode support: learning grammar from prior inputs.

When no pre-defined grammar exists, GAP "collects some partial grammar
by inferring it from previous runs (of the same data corpus)"
(Section 3).  :class:`GrammarLearner` is that component: feed it any
number of prior documents (or token streams) and it accumulates a
partial static syntax tree via Algorithm 3
(:mod:`repro.grammar.extraction`), from which a speculative feasible
path table can be inferred at any point.

The learner is deliberately incremental — real deployments observe the
stream they will later query — and cheap: observation is a single
well-formedness-checking pass.

The *validation and reprocessing* half of speculative GAP does not live
here: it is the join phase (:mod:`repro.transducer.mapping`) plus the
restart-path revival in the chunk runner; this module only produces the
(possibly wrong) table they guard against.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable

from ..grammar.extraction import extract_syntax_tree
from ..grammar.syntax_tree import StaticSyntaxTree
from ..obs.logsetup import get_logger
from ..xpath.automaton import QueryAutomaton
from ..xmlstream.lexer import lex
from ..xmlstream.tokens import Token
from .inference import FeasibleTable, infer_feasible_paths

__all__ = ["GrammarLearner", "empty_speculative_table"]

logger = get_logger("core.speculative")


class GrammarLearner:
    """Accumulates a partial static syntax tree from observed inputs."""

    def __init__(self) -> None:
        self._tree: StaticSyntaxTree | None = None
        self._documents = 0

    @property
    def tree(self) -> StaticSyntaxTree | None:
        """The partial syntax tree learned so far (``None`` before any input)."""
        return self._tree

    @property
    def documents_observed(self) -> int:
        return self._documents

    def observe(self, xml_text: str) -> None:
        """Extend the partial tree with the structures in ``xml_text``."""
        self.observe_tokens(lex(xml_text))

    def observe_tokens(self, tokens: Iterable[Token]) -> None:
        """Extend the partial tree from a token stream (views or columns).

        Learning reads :class:`Token` views: it runs once per prior
        document, not per query.
        """
        self._tree = extract_syntax_tree(tokens, prior=self._tree)
        self._documents += 1
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "observed document %d: partial syntax tree has %d node(s)",
                self._documents, len(self._tree),
            )

    def observe_prefix(self, xml_text: str, fraction: float) -> None:
        """Observe only a leading fraction of a document.

        Mirrors learning from truncated prior streams; the prefix is
        closed up synthetically by discarding unbalanced tails, which
        :func:`extract_syntax_tree` handles by raising — so instead we
        feed tokens until the budget and stop at a depth-0 boundary.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        budget = int(len(xml_text) * fraction)
        collected: list[Token] = []
        depth = 0
        for tok in lex(xml_text):
            if tok.offset >= budget and depth == 1 and tok.is_start:
                # stop cleanly before opening another top-level subtree
                break
            collected.append(tok)
            if tok.is_start:
                depth += 1
            elif tok.is_end:
                depth -= 1
        # synthesise closing tags for whatever is still open
        open_tags: list[str] = []
        for tok in collected:
            if tok.is_start:
                open_tags.append(tok.name)
            elif tok.is_end:
                open_tags.pop()
        from ..xmlstream.tokens import end_tag

        closing = [end_tag(name, len(xml_text)) for name in reversed(open_tags)]
        self.observe_tokens([*collected, *closing])

    def table(self, automaton: QueryAutomaton) -> FeasibleTable:
        """Infer the speculative feasible path table from what was learned."""
        if self._tree is None:
            return empty_speculative_table()
        return infer_feasible_paths(automaton, self._tree, complete=False)


def empty_speculative_table() -> FeasibleTable:
    """A table that knows nothing: every lookup degrades to enumeration.

    With this table a speculative GAP transducer behaves exactly like
    the PP-Transducer baseline (modulo data-structure switching), which
    is the paper's stated degradation path.
    """
    return FeasibleTable(complete=False)
