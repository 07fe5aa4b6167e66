"""GAP pushdown transducers — the policies that make the pipeline GAP.

A :class:`GapPolicy` plugs the feasible-path table
(:mod:`repro.core.inference`) into the shared chunk kernel
(:mod:`repro.core.kernel`), enabling the paper's two novel
features (Section 4.3):

* **dynamic path elimination** in the three scenarios — chunk start,
  pop divergence, first start tag after a divergence — all answered
  from the feasible path table;
* **runtime data-structure switching** — the runner drops to plain
  stack execution whenever one path survives (``switch_to_stack``).

The same class covers non-speculative and speculative mode; the table
decides the difference (a complete table answers every lookup, a
partial one returns "unknown" for missing tags, degrading that decision
to full enumeration), plus the ``speculative`` flag switches scenario 3
from *intersect* to *replace* semantics with path revival (Section
5.2).

Applications run it through :class:`repro.core.engine.GapEngine`.
"""

from __future__ import annotations

from ..xpath.automaton import QueryAutomaton
from ..xmlstream.tokens import Token
from ..transducer.policies import ELIMINATE_NEVER, ELIMINATE_PAPER, PathPolicy
from .inference import FeasibleTable

__all__ = ["GapPolicy"]


class GapPolicy(PathPolicy):
    """Feasible-table-driven path policy (non-speculative or speculative)."""

    table_based = True

    def __init__(
        self,
        automaton: QueryAutomaton,
        table: FeasibleTable,
        speculative: bool | None = None,
        eliminate: str = ELIMINATE_PAPER,
        switch_to_stack: bool = True,
    ) -> None:
        super().__init__(automaton)
        self.table = table
        # speculation is implied by an incomplete table unless forced
        self.speculative = (not table.complete) if speculative is None else speculative
        if not self.speculative and not table.complete:
            raise ValueError(
                "non-speculative GAP requires a table inferred from a complete grammar"
            )
        self.eliminate = eliminate
        self.switch_to_stack = switch_to_stack
        if eliminate == ELIMINATE_NEVER:
            # ablation configuration: no grammar knowledge at all —
            # the baseline's path enumeration plus runtime switching
            self.table_based = False

    # -- hooks ----------------------------------------------------------

    def start_states(self, token: Token) -> frozenset[int] | None:
        if self.eliminate == ELIMINATE_NEVER:
            return None  # scenario 1 is an elimination scenario too
        return self.table.start_states(token)

    def pop_candidates(self, tag: str) -> frozenset[int] | None:
        if self.eliminate == ELIMINATE_NEVER:
            return None
        # the popped value is whatever was pushed at the matching start
        # tag, i.e. a state feasible immediately before ``<tag>``
        return self.table.lookup_start(tag)

    def before_end(self, tag: str) -> frozenset[int] | None:
        return self.table.lookup_end(tag)

    def before_start(self, tag: str) -> frozenset[int] | None:
        return self.table.lookup_start(tag)
