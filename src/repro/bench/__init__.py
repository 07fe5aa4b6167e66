"""Benchmark harness shared by the ``benchmarks/`` drivers."""

from .harness import (
    VERSIONS,
    VersionRun,
    generate_document,
    geomean,
    make_engine,
    run_experiment,
    run_version,
)
from .reporting import banner, format_series, format_table, print_series, print_table

__all__ = [
    "VERSIONS",
    "VersionRun",
    "banner",
    "format_series",
    "format_table",
    "generate_document",
    "geomean",
    "make_engine",
    "print_series",
    "print_table",
    "run_experiment",
    "run_version",
]
