"""Plain-text cells and tables, shared by every text and HTML surface.

:func:`format_cell` is the one rule for printing a value in a table
cell (``None`` as ``-``, floats to two decimals or five below 0.01), so
the terminal and HTML renderers of one page, the CLI tables and the
benchmark drivers print the same strings.  This module imports nothing
from the package, so any layer can use it.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["banner", "format_cell", "format_table"]


def format_cell(value: object) -> str:
    """One table cell: ``None`` → ``-``; floats get 2 decimals (5 below 0.01)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.5f}"
        return f"{value:.2f}"
    return str(value)


def banner(title: str) -> str:
    line = "=" * max(len(title), 8)
    return f"\n{line}\n{title}\n{line}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned table of :func:`format_cell` cells."""
    cells = [[format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out: list[str] = []
    if title:
        out.append(banner(title))
    out.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(out)
