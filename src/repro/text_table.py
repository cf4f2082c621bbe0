"""Paper-style plain-text tables: pure string formatting, imports nothing
(``obs`` and ``bench`` both render with it)."""

from __future__ import annotations


def format_table(title: str, headers: list[str],
                 rows: list[list], footers: list[list] | None = None) -> str:
    """Render an aligned text table with a title rule."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    str_footers = [[_cell(v) for v in row] for row in (footers or [])]
    widths = [len(h) for h in headers]
    for row in str_rows + str_footers:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                               for c, w in zip(row, widths)))
    if str_footers:
        lines.append("  ".join("-" * w for w in widths))
        for row in str_footers:
            lines.append("  ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                                   for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0.000"
        if abs(value) >= 1000:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.4f}"
    return str(value)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
