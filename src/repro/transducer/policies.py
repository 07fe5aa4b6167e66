"""Path policies — what the chunk kernel may assume about execution paths.

The chunk kernel (:mod:`repro.core.kernel`) is shared by every
parallel variant in the paper's evaluation; a :class:`PathPolicy`
record holds all the differences as plain data:

=====================  ==============================================
Field                  Meaning
=====================  ==============================================
``table``              the feasible-path table
                       (:class:`~repro.core.inference.FeasibleTable`)
                       that answers the three elimination scenarios
                       and divergence enumeration; ``None`` answers
                       "every state"
``eliminate``          which elimination scenarios consult the table
                       (``ELIMINATE_NEVER`` / ``_PAPER`` / ``_ALWAYS``)
``switch_to_stack``    runtime data-structure switching (Section 4.3)
``speculative``        scenario 3 *replaces* the live set and revives
                       missing states as restart paths (Section 5.2)
=====================  ==============================================

A table lookup may answer ``None``, meaning "no information — assume
every state": the speculative table's answer for tags missing from a
partial grammar (the paper's *degrade to basic parallel transducer*).

:meth:`PathPolicy.baseline` is the PP-Transducer (Ogden et al.,
VLDB'13): all states at chunk starts, the whole stack alphabet on
divergences, no grammar-based elimination and no runtime switching.
:meth:`PathPolicy.gap` is the GAP transducer, speculative or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.inference import FeasibleTable

__all__ = ["PathPolicy", "ELIMINATE_NEVER", "ELIMINATE_PAPER", "ELIMINATE_ALWAYS"]

#: never consult feasibility (baseline)
ELIMINATE_NEVER = "never"
#: the paper's three scenarios: chunk start, divergence, first start tag after a divergence
ELIMINATE_PAPER = "paper"
#: additionally check every start and end tag (eager ablation variant)
ELIMINATE_ALWAYS = "always"


@dataclass(frozen=True, slots=True)
class PathPolicy:
    """One parallel-phase configuration (see module docstring).

    The defaults are the baseline: no table, no elimination, no
    switching.
    """

    table: FeasibleTable | None = None
    eliminate: str = ELIMINATE_NEVER
    switch_to_stack: bool = False
    speculative: bool = False

    @property
    def table_based(self) -> bool:
        """Whether "no information" answers count as degraded lookups."""
        return self.table is not None and self.eliminate != ELIMINATE_NEVER

    @classmethod
    def baseline(cls) -> PathPolicy:
        """The PP-Transducer (Ogden et al., VLDB'13).

        Enumerates every state at chunk starts and the whole stack
        alphabet Γ = Q on divergences.  The FA-only restriction prior
        work applies (footnote 2 of the paper) cannot soundly exclude
        *any* popped value: the element whose end tag underflowed may
        have been opened from any state — including ones whose
        transition on the tag leads to the unrelated-tag state —
        because the transition function is total.  This is exactly why
        the paper observes that the FA-based reduction "often fails to
        reduce the possibilities of popped-out states";
        :meth:`QueryAutomaton.fa_pop_candidates` documents the
        (non-restricting) set for analysis, and only the grammar-based
        table of GAP can prune divergences.
        """
        return cls()

    @classmethod
    def gap(
        cls,
        table: FeasibleTable,
        speculative: bool | None = None,
        eliminate: str = ELIMINATE_PAPER,
        switch_to_stack: bool = True,
    ) -> PathPolicy:
        """The GAP transducer over ``table`` (Section 4.3).

        Speculation follows the table unless forced: a complete table
        answers every lookup, a partial one answers "unknown" for
        missing tags.  Non-speculative GAP needs a complete table.
        ``eliminate=ELIMINATE_NEVER`` is the ablation that keeps only
        runtime switching.
        """
        if speculative is None:
            speculative = not table.complete
        if not speculative and not table.complete:
            raise ValueError(
                "non-speculative GAP requires a table inferred from a complete grammar"
            )
        return cls(table, eliminate, switch_to_stack, speculative)
