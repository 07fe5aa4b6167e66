"""GAP core — the paper's primary contribution.

* :mod:`~repro.core.inference` — feasible-path inference (Alg. 2);
* :mod:`~repro.core.speculative` — partial-grammar learning for
  speculative mode;
* :mod:`~repro.core.kernel` — the dense table-driven chunk kernel;
* :mod:`~repro.core.engine` — public engines;
* :mod:`~repro.core.stats` — Table-5/6 statistics.
"""

from .engine import (
    EngineError,
    GapEngine,
    PPTransducerEngine,
    QueryResult,
    SequentialEngine,
    element_at,
    query,
)
from .inference import FeasibleTable, infer_feasible_paths
from .kernel import DenseRunner, tables_for_policy
from .speculative import GrammarLearner, empty_speculative_table
from .stats import RunStats

__all__ = [
    "DenseRunner",
    "EngineError",
    "FeasibleTable",
    "GapEngine",
    "GrammarLearner",
    "PPTransducerEngine",
    "QueryResult",
    "RunStats",
    "SequentialEngine",
    "element_at",
    "empty_speculative_table",
    "infer_feasible_paths",
    "query",
    "tables_for_policy",
]
