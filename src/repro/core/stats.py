"""Execution statistics — the profiling quantities of Tables 5 and 6.

Wraps the raw :class:`~repro.transducer.counters.WorkCounters` of a run
with the derived metrics the paper reports:

* **average number of starting execution paths** (Table 5) — paths a
  chunk begins with, averaged over chunks;
* **speculation accuracy** (Table 6 "acc.") — the fraction of
  speculated chunks whose mappings joined without any reprocessing;
* **reprocessing cost** (Table 6 "cost") — reprocessed tokens as a
  fraction of all tokens processed (the paper reports the fraction of
  total execution time; under the linear cost model these coincide up
  to the mode-dependent constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..transducer.counters import WorkCounters

__all__ = ["RunStats"]


@dataclass(slots=True)
class RunStats:
    """Aggregated statistics of one engine run."""

    counters: WorkCounters
    chunk_counters: list[WorkCounters] = field(default_factory=list)

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_counters)

    @property
    def avg_starting_paths(self) -> float:
        """Table 5's metric.

        Chunk 0 always starts from the single known state; the paper's
        numbers reflect the enumerating chunks, so chunk 0 is excluded
        when other chunks exist.
        """
        relevant = self.chunk_counters[1:] if len(self.chunk_counters) > 1 else self.chunk_counters
        if not relevant:
            return 0.0
        return sum(c.starting_paths for c in relevant) / len(relevant)

    @property
    def speculation_accuracy(self) -> float:
        """Table 6 "acc.": speculated chunks that joined cleanly.

        Only chunks 1..n-1 speculate (chunk 0 has its true context).
        Returns 1.0 when nothing speculated.
        """
        speculated = max(0, self.n_chunks - 1)
        if speculated == 0:
            return 1.0
        return 1.0 - self.counters.misspeculations / speculated

    @property
    def reprocessing_cost(self) -> float:
        """Table 6 "cost": reprocessed fraction of the token work."""
        total = self.counters.total_tokens + self.counters.reprocessed_tokens
        if total == 0:
            return 0.0
        return self.counters.reprocessed_tokens / total

    @property
    def switches(self) -> int:
        """Runtime data-structure switches across all chunks."""
        return self.counters.switches

    @property
    def divergences(self) -> int:
        return self.counters.divergences

    def summary(self) -> dict[str, float]:
        """Flat dict for benchmark reporting."""
        return {
            "chunks": float(self.n_chunks),
            "avg_starting_paths": self.avg_starting_paths,
            "avg_tree_paths": self.counters.avg_tree_paths,
            "stack_tokens": float(self.counters.stack_tokens),
            "skipped_tokens": float(self.counters.skipped_tokens),
            "tree_tokens": float(self.counters.tree_tokens),
            "tree_path_steps": float(self.counters.tree_path_steps),
            "switches": float(self.counters.switches),
            "divergences": float(self.counters.divergences),
            "paths_eliminated": float(self.counters.paths_eliminated),
            "paths_converged": float(self.counters.paths_converged),
            "misspeculations": float(self.counters.misspeculations),
            "speculation_accuracy": self.speculation_accuracy,
            "reprocessing_cost": self.reprocessing_cost,
            "degraded_lookups": float(self.counters.degraded_lookups),
            "mapping_entries": float(self.counters.mapping_entries),
            "retries": float(self.counters.retries),
            "timeouts": float(self.counters.timeouts),
            "fallbacks": float(self.counters.fallbacks),
        }
