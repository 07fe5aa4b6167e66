"""Plain-text reporting helpers for the benchmark drivers.

The benchmarks print the same rows/series the paper's tables and
figures report, as aligned ASCII tables — one table per artifact —
so `pytest benchmarks/ --benchmark-only -s` output can be compared
against the paper side by side (EXPERIMENTS.md records both).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..obs.textfmt import banner, format_table

__all__ = [
    "format_table",
    "print_table",
    "format_series",
    "print_series",
    "series_table",
    "banner",
]


def print_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> None:
    print(format_table(headers, rows, title))


def series_table(
    x_label: str,
    xs: Sequence[object],
    series: dict[str, Sequence[float]],
) -> tuple[list[str], list[list[object]]]:
    """Figure data → ``(headers, rows)``: one x column + one per series."""
    headers = [x_label, *series.keys()]
    rows = [[x, *(series[name][i] for name in series)] for i, x in enumerate(xs)]
    return headers, rows


def format_series(
    x_label: str,
    xs: Sequence[object],
    series: dict[str, Sequence[float]],
    title: str | None = None,
) -> str:
    """Render figure data: one x column plus one column per series."""
    headers, rows = series_table(x_label, xs, series)
    return format_table(headers, rows, title)


def print_series(
    x_label: str,
    xs: Sequence[object],
    series: dict[str, Sequence[float]],
    title: str | None = None,
) -> None:
    print(format_series(x_label, xs, series, title))
