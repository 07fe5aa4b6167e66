"""Path policies — what the chunk kernel may assume about execution paths.

The chunk kernel (:mod:`repro.core.kernel`) is shared by every
parallel variant in the paper's evaluation; a :class:`PathPolicy`
object encapsulates all the differences:

========================  ==========================================
Hook                      Question it answers
========================  ==========================================
``start_states(token)``   Which states may a chunk start from, given
                          its first token?  (Elimination scenario 1)
``pop_candidates(tag)``   Which values may an underflow pop produce
                          for ``</tag>``?  (Divergence enumeration)
``before_end(tag)``       Which states are feasible right before
                          ``</tag>``?  (Elimination scenario 2)
``before_start(tag)``     Which states are feasible right before
                          ``<tag>``?  (Elimination scenario 3)
========================  ==========================================

Every hook may return ``None`` meaning "no information — assume every
state", which is both the baseline's permanent answer and the
speculative table's answer for tags missing from a partial grammar
(the paper's *degrade to basic parallel transducer*).

:class:`BaselinePolicy` reproduces the PP-Transducer (Ogden et al.,
VLDB'13): all states at chunk starts, FA-restricted (or naive Γ)
divergence candidates, no grammar-based elimination, and no runtime
data-structure switching.  The GAP policies live in
:mod:`repro.core.gap_transducer`, next to the feasible-path table they
consume.
"""

from __future__ import annotations

from ..xpath.automaton import QueryAutomaton
from ..xmlstream.tokens import Token

__all__ = ["PathPolicy", "BaselinePolicy", "ELIMINATE_NEVER", "ELIMINATE_PAPER", "ELIMINATE_ALWAYS"]

#: never consult feasibility (baseline)
ELIMINATE_NEVER = "never"
#: the paper's three scenarios: chunk start, divergence, first start tag after a divergence
ELIMINATE_PAPER = "paper"
#: additionally check every start and end tag (eager ablation variant)
ELIMINATE_ALWAYS = "always"


class PathPolicy:
    """Base policy: no information, no elimination, no switching.

    Subclasses override hooks; the defaults answer "all states".
    """

    #: speculative semantics: `before_start` *replaces* the live set and
    #: revives missing states as restart paths (Section 5.2)
    speculative: bool = False
    #: one of ELIMINATE_NEVER / ELIMINATE_PAPER / ELIMINATE_ALWAYS
    eliminate: str = ELIMINATE_NEVER
    #: runtime data-structure switching (Section 4.3) enabled
    switch_to_stack: bool = False
    #: whether `None` answers should count as degraded table lookups
    table_based: bool = False

    def __init__(self, automaton: QueryAutomaton) -> None:
        self.automaton = automaton
        self._all_states = frozenset(range(automaton.n_states))

    @property
    def all_states(self) -> frozenset[int]:
        return self._all_states

    # -- hooks ----------------------------------------------------------

    def start_states(self, token: Token) -> frozenset[int] | None:
        """Feasible starting states for a chunk beginning with ``token``."""
        return None

    def pop_candidates(self, tag: str) -> frozenset[int] | None:
        """Possible popped values when ``</tag>`` underflows the stack."""
        return None

    def before_end(self, tag: str) -> frozenset[int] | None:
        """States feasible immediately before ``</tag>``."""
        return None

    def before_start(self, tag: str) -> frozenset[int] | None:
        """States feasible immediately before ``<tag>``."""
        return None


class BaselinePolicy(PathPolicy):
    """The PP-Transducer baseline (Ogden et al., VLDB'13).

    Enumerates every state at chunk starts and the whole stack alphabet
    Γ = Q on divergences.  The FA-only restriction prior work applies
    (footnote 2 of the paper) cannot soundly exclude *any* popped
    value: the element whose end tag underflowed may have been opened
    from any state — including ones whose transition on the tag leads
    to the unrelated-tag state — because the transition function is
    total.  This is exactly why the paper observes that the FA-based
    reduction "often fails to reduce the possibilities of popped-out
    states"; :meth:`QueryAutomaton.fa_pop_candidates` documents the
    (non-restricting) set for analysis, and only the grammar-based
    table of GAP can prune divergences.
    """

    eliminate = ELIMINATE_NEVER
    switch_to_stack = False
    table_based = False
    speculative = False

    def __init__(self, automaton: QueryAutomaton) -> None:
        super().__init__(automaton)
