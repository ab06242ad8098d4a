"""Small plain-text comparison tables for the CLI and the examples.

``ComparisonTable`` collects rows of ``{column: value}`` dictionaries (hosts
used, energy, deviation from optimal, submission time...) and renders them
with aligned columns so they stay readable in a terminal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return f"{value:.4f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    rendered = [[_format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in rendered
    )
    return f"{header}\n{separator}\n{body}"


class ComparisonTable:
    """Accumulate rows and print them with a title (one per experiment)."""

    def __init__(self, title: str, columns: Optional[Sequence[str]] = None) -> None:
        self.title = title
        self.columns = list(columns) if columns else None
        self.rows: List[Dict[str, object]] = []

    def add_row(self, **values) -> None:
        """Append one row of named values."""
        self.rows.append(values)

    def render(self) -> str:
        """The table as a titled plain-text block."""
        underline = "=" * len(self.title)
        return f"{self.title}\n{underline}\n{format_table(self.rows, self.columns)}"

    def print(self) -> None:
        """Print the rendered table, framed by blank lines."""
        print("\n" + self.render() + "\n")

    def __len__(self) -> int:
        return len(self.rows)
