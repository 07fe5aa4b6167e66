"""Pushdown-transducer core: mappings, path policies, parallel pipeline.

The sequential PDT (Definition 1) is the chunk kernel's single-stack
loop, entered through :meth:`repro.core.kernel.DenseRunner.run_from`.

* :mod:`~repro.transducer.mapping` — mappings (Definition 3) and join;
* :mod:`~repro.transducer.doubletree` — multi-path structure with
  path convergence (the baseline's double tree);
* :mod:`~repro.transducer.policies` — the path-policy record
  (PP-Transducer baseline and GAP configurations);
* :mod:`~repro.transducer.pipeline` — split/parallel/join driver;
* :mod:`~repro.transducer.counters` — work counters for the cost model.
"""

from .counters import WorkCounters
from .doubletree import Member, PathGroup, merge_groups, segment_entries
from .mapping import (ChunkResult, Cohort, JoinError, Segment, SegmentEntry,
                      StackUnderflow, join_results)
from .pipeline import (
    ParallelPipeline,
    ParallelRunResult,
    run_sequential_pipeline,
)
from .policies import ELIMINATE_ALWAYS, ELIMINATE_NEVER, ELIMINATE_PAPER, PathPolicy

__all__ = [
    "ChunkResult",
    "Cohort",
    "ELIMINATE_ALWAYS",
    "ELIMINATE_NEVER",
    "ELIMINATE_PAPER",
    "JoinError",
    "Member",
    "ParallelPipeline",
    "ParallelRunResult",
    "PathGroup",
    "PathPolicy",
    "Segment",
    "SegmentEntry",
    "StackUnderflow",
    "WorkCounters",
    "join_results",
    "merge_groups",
    "run_sequential_pipeline",
    "segment_entries",
]
