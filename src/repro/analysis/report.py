"""Plain-text table rendering for benchmark and report output.

The benchmark harness prints the same rows the paper's claims are about;
these helpers keep that output aligned and diff-friendly.  Numeric
columns (every non-missing value an int or float) are right-aligned so
magnitudes line up; text columns stay left-aligned.  The markdown
variant backs ``repro report``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def _is_numeric(value: object) -> bool:
    """Whether a cell value should right-align (bools read as text)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _layout(
    rows: Sequence[Dict[str, object]], columns: Sequence[str]
) -> Tuple[List[str], Dict[str, int], Dict[str, bool], List[List[str]]]:
    """Shared column layout: widths, numeric flags, formatted cells."""
    cols: List[str] = list(columns) if columns else list(rows[0].keys())
    widths = {c: len(c) for c in cols}
    numeric = {c: True for c in cols}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for c in cols:
            value = row.get(c, "")
            if value != "" and not _is_numeric(value):
                numeric[c] = False
            text = _fmt(value)
            widths[c] = max(widths[c], len(text))
            cells.append(text)
        rendered.append(cells)
    return cols, widths, numeric, rendered


def _align(text: str, column: str, widths: Dict[str, int],
           numeric: Dict[str, bool]) -> str:
    if numeric[column]:
        return text.rjust(widths[column])
    return text.ljust(widths[column])


def render_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()) -> str:
    """Render dict-rows as an aligned text table.

    Columns default to the keys of the first row, in order.  Columns
    whose every present value is numeric are right-aligned (header
    included); everything else left-aligns.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    cols, widths, numeric, rendered = _layout(rows, columns)
    header = "  ".join(_align(c, c, widths, numeric) for c in cols)
    sep = "  ".join("-" * widths[c] for c in cols)
    body = [
        "  ".join(_align(cell, c, widths, numeric) for cell, c in zip(cells, cols))
        for cells in rendered
    ]
    return "\n".join([header, sep] + body)


def render_markdown_table(
    rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()
) -> str:
    """Render dict-rows as a GitHub-flavoured markdown pipe table.

    Cells are padded to a fixed column width (diff-friendly: one changed
    value touches one line) and numeric columns carry the ``---:``
    right-alignment marker.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    cols, widths, numeric, rendered = _layout(rows, columns)
    header = "| " + " | ".join(_align(c, c, widths, numeric) for c in cols) + " |"
    marks = [
        ("-" * max(3, widths[c] - 1)) + ":" if numeric[c]
        else "-" * max(3, widths[c])
        for c in cols
    ]
    sep = "| " + " | ".join(marks) + " |"
    body = [
        "| " + " | ".join(
            _align(cell, c, widths, numeric) for cell, c in zip(cells, cols)
        ) + " |"
        for cells in rendered
    ]
    return "\n".join([header, sep] + body)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)

