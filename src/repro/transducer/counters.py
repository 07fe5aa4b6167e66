"""Work counters — the measured quantities behind the cost model.

Every transducer loop in this repository increments these counters as a
side effect of doing the *real* work.  They serve two purposes:

* they are the paper's profiling quantities (Table 5's starting-path
  counts, the number of data-structure switches, divergences, the
  reprocessed fraction of Table 6);
* they drive the :mod:`repro.parallel.simcluster` cost model, which
  converts per-worker work into simulated wall-clock time — the
  substitution this reproduction uses for the paper's 20-core Xeon
  (see DESIGN.md §2: CPython's GIL prevents demonstrating real
  multicore scaling of a byte-crunching loop, but the *work* each core
  would perform is exactly what these counters record).

All counts are plain integers and merge additively, so per-chunk
counters can be summed across workers or kept separate for the
max-over-workers critical-path computation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

__all__ = ["WorkCounters"]


@dataclass(slots=True)
class WorkCounters:
    """Additive work/event counters for one execution (chunk or run)."""

    #: bytes of raw input lexed
    bytes_lexed: int = 0
    #: tokens processed in single-path (plain stack) mode
    stack_tokens: int = 0
    #: of ``stack_tokens``, the rows the single-stack loop jumped over
    #: below a START that entered the dead state (counted, not stepped)
    skipped_tokens: int = 0
    #: tokens processed in multi-path (double-tree) mode
    tree_tokens: int = 0
    #: sum over tree-mode tokens of the number of live path groups
    #: (the path-maintenance work the paper's elimination attacks)
    tree_path_steps: int = 0
    #: number of runtime data-structure switches (tree <-> stack)
    switches: int = 0
    #: pop divergences encountered (underflow pops)
    divergences: int = 0
    #: path groups killed by feasibility checks (all three scenarios)
    paths_eliminated: int = 0
    #: path groups merged by convergence
    paths_converged: int = 0
    #: number of execution paths a chunk started with (summed; use
    #: together with `chunks` for the Table-5 average)
    starting_paths: int = 0
    #: chunks processed (1 for a single chunk's counters)
    chunks: int = 0
    #: chunks that hit at least one feasible-table miss and degraded to
    #: full enumeration (speculative mode with missing grammar parts)
    degraded_lookups: int = 0
    #: tokens re-executed sequentially after a misspeculation
    reprocessed_tokens: int = 0
    #: join-time misspeculations detected
    misspeculations: int = 0
    #: mapping entries (origins) at chunk completion, summed
    mapping_entries: int = 0
    #: join-phase linking steps
    join_steps: int = 0
    #: chunk attempts re-scheduled by the resilience layer
    retries: int = 0
    #: chunk attempts that exceeded the chunk timeout
    timeouts: int = 0
    #: chunks re-executed on the serial fallback after retries ran out
    fallbacks: int = 0

    def merge(self, other: "WorkCounters") -> None:
        """Add ``other`` into ``self`` (workers → run totals)."""
        for name in _NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def copy(self) -> "WorkCounters":
        return WorkCounters(*_values(self))

    # -- derived quantities -------------------------------------------

    @property
    def total_tokens(self) -> int:
        return self.stack_tokens + self.tree_tokens

    @property
    def avg_starting_paths(self) -> float:
        """Table 5's metric: average starting paths per chunk."""
        return self.starting_paths / self.chunks if self.chunks else 0.0

    @property
    def avg_tree_paths(self) -> float:
        """Average number of live paths per tree-mode token."""
        return self.tree_path_steps / self.tree_tokens if self.tree_tokens else 0.0

    def as_dict(self) -> dict[str, int]:
        return dict(zip(_NAMES, _values(self)))


#: the counter names in declaration order, and a getter for all values
_NAMES = tuple(f.name for f in fields(WorkCounters))
_values = attrgetter(*_NAMES)
