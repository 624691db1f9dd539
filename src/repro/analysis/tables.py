"""Plain-text renderers for paper-style tables and figures.

The benches print their reproduced tables/figures to stdout; these helpers
keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Optional, Sequence


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple aligned table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(cells[0]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in cells[1:])
    return "\n".join(lines)


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: Optional[str] = None,
    fmt: str = "{:.3f}",
) -> str:
    """Render horizontal bars scaled to the largest value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    peak = max((abs(v) for v in values), default=1.0) or 1.0
    label_width = max((len(l) for l in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(abs(value) / peak * width)))
        lines.append(f"{label.ljust(label_width)}  {bar} {fmt.format(value)}")
    return "\n".join(lines)
