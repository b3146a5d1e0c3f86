"""Plain-text rendering of experiment tables and figure series.

The benchmarks print the same rows/series the paper reports; these
helpers keep the formatting uniform (fixed-width columns, one title
line per table) so EXPERIMENTS.md can quote the output verbatim.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Cell = Union[str, float, int]


def format_cell(value: Cell, precision: int = 3) -> str:
    """Render one table cell (floats to ``precision``, NaN as a dash)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return "%.*f" % (precision, value)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    title: str = "",
    precision: int = 3,
) -> str:
    """Render an aligned plain-text table."""
    rendered = [[format_cell(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[Cell],
    series: Dict[str, Sequence[float]],
    title: str = "",
    precision: int = 3,
) -> str:
    """Render figure-style data: one column per x value, one row per
    named series (the same layout as reading points off the paper's
    plots)."""
    headers = [x_label] + [format_cell(x, precision) for x in x_values]
    rows: List[List[Cell]] = []
    for name, values in series.items():
        rows.append([name] + list(values))
    return format_table(headers, rows, title=title, precision=precision)

