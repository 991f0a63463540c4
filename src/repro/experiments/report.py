"""Reporting helpers: tabular figure results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class FigureResult:
    """One reproduced table or figure: named rows of measurements.

    ``rows`` is a list of dictionaries sharing the same keys (the ``columns``); the first column
    is typically the x-axis of the paper's figure (query name, number of indexes, node type...).
    """

    figure: str
    description: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        """Append one row; unknown columns are rejected to keep rows consistent."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}; declared columns: {self.columns}")
        self.rows.append(values)

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key_value: Any) -> dict:
        """The first row whose ``key_column`` equals ``key_value``."""
        for row in self.rows:
            if row.get(key_column) == key_value:
                return row
        raise KeyError(f"no row with {key_column}={key_value!r} in {self.figure}")

    # ------------------------------------------------------------------ rendering
    def to_text(self) -> str:
        """Render the result as an aligned text table (what the benchmark harness prints)."""
        header = [self.figure, self.description]
        widths = {
            column: max(
                len(column),
                *(len(_format_cell(row.get(column))) for row in self.rows or [{}]),
            )
            for column in self.columns
        }
        lines = [" | ".join(column.ljust(widths[column]) for column in self.columns)]
        lines.append("-+-".join("-" * widths[column] for column in self.columns))
        for row in self.rows:
            lines.append(
                " | ".join(
                    _format_cell(row.get(column)).ljust(widths[column]) for column in self.columns
                )
            )
        body = "\n".join(lines)
        note = f"\nnote: {self.notes}" if self.notes else ""
        return f"== {header[0]} — {header[1]} ==\n{body}{note}"

    def print(self) -> None:  # pragma: no cover - console convenience
        """Print the rendered table."""
        print(self.to_text())


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
