"""Plain-text rendering of experiment results.

The benchmark harness prints its outputs as fixed-width text tables and
series (no plotting dependencies are available offline); the formats mirror
the paper's Table 1 rows and the Figure 1 / Figure 2 series so that a reader
can compare shapes directly against the paper.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render a list of dictionaries as a fixed-width text table.

    Parameters
    ----------
    rows:
        The table rows; missing keys render as empty cells.
    columns:
        Column order; defaults to the keys of the first row.
    precision:
        Decimal places used for float values.
    title:
        Optional title line printed above the table.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [
        [_format_value(row.get(column, ""), precision) for column in columns] for row in rows
    ]
    widths = [
        max(len(str(column)), max(len(rendered[index]) for rendered in rendered_rows))
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(rendered, widths)))
    return "\n".join(lines)


def format_series(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    x_label: str = "x",
    precision: int = 3,
    title: str | None = None,
    max_rows: int | None = None,
) -> str:
    """Render one or more named series over a shared x-axis as a table.

    This is how the figure benches print their curves (one row per x value,
    one column per line of the figure).
    """
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values but there are "
                f"{len(x_values)} x values"
            )
    indices = range(len(x_values))
    if max_rows is not None and len(x_values) > max_rows:
        step = max(1, len(x_values) // max_rows)
        indices = range(0, len(x_values), step)
    rows = []
    for index in indices:
        row: dict[str, object] = {x_label: float(x_values[index])}
        for name, values in series.items():
            row[name] = float(values[index])
        rows.append(row)
    return format_table(rows, precision=precision, title=title)


def indent(text: str, prefix: str = "    ") -> str:
    """Indent every line of a block of text (for nested reports)."""
    return "\n".join(prefix + line for line in text.splitlines())
