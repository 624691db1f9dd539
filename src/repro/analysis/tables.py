"""Plain-text renderer for paper-style tables.

The CLI and the benches print their reproduced tables to stdout; this
helper keeps the formatting consistent and dependency-free.
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
