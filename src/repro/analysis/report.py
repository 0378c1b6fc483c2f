"""Plain-text rendering of figure/table data (the CLI and the textual report)."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def format_records_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Mapping[str, object]],
    formats: Optional[Mapping[str, str]] = None,
) -> str:
    """Render record rows as a text table whose column widths fit the data.

    Unlike hardcoded ``{value:8s}`` format specs, widths are computed from
    the rendered cells (and headers), so long dashed names like
    ``embedding-inference`` neither truncate nor shear the columns.
    ``formats`` maps a column to a format spec for its non-``None`` values;
    ``None`` cells render as ``-``.
    """
    formats = dict(formats or {})

    def cell_text(column: str, record: Mapping[str, object]) -> str:
        value = record.get(column)
        if value is None:
            return "-"
        spec = formats.get(column)
        return spec.format(value) if spec else str(value)

    rendered = [[cell_text(column, record) for column in columns] for record in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered)) if rendered else len(column)
        for i, column in enumerate(columns)
    ]
    lines = [title, "=" * len(title)]
    # First column left-aligned (names), the rest right-aligned (values).
    lines.append(" ".join(
        column.ljust(widths[i]) if i == 0 else column.rjust(widths[i])
        for i, column in enumerate(columns)
    ).rstrip())
    for line in rendered:
        lines.append(" ".join(
            text.ljust(widths[i]) if i == 0 else text.rjust(widths[i])
            for i, text in enumerate(line)
        ).rstrip())
    return "\n".join(lines)


def format_figure_table(
    title: str,
    rows: Mapping[str, Union[Number, Mapping[str, Number]]],
    value_format: str = "{:.3f}",
) -> str:
    """Render a figure's data as an aligned text table.

    ``rows`` is either ``{row: value}`` or ``{row: {column: value}}``.
    """
    lines = [title, "=" * len(title)]
    if not rows:
        lines.append("(no data)")
        return "\n".join(lines)

    first = next(iter(rows.values()))
    if isinstance(first, Mapping):
        columns = list(first.keys())
        header = f"{'':24s}" + "".join(f"{c:>16s}" for c in columns)
        lines.append(header)
        for row_name, values in rows.items():
            cells = "".join(
                f"{value_format.format(values.get(c, float('nan'))):>16s}" for c in columns
            )
            lines.append(f"{row_name:24s}{cells}")
    else:
        for row_name, value in rows.items():
            lines.append(f"{row_name:24s}{value_format.format(value):>16s}")
    return "\n".join(lines)


def render_report(sections: Sequence[str]) -> str:
    """Join rendered sections into one report string."""
    return "\n\n".join(sections) + "\n"
