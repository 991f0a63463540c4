"""``HailRecord``: the value type handed to map functions running on HAIL.

The HailRecordReader filters and projects records before the map function ever sees them, so
Bob's map function shrinks to ``output(v.getInt(1), null)`` (Section 4.1).  Attribute positions
in the getters refer to the *original* schema (1-based), even when only a projection of the
attributes was materialised.  Bad records — rows that did not match the schema at upload time —
are passed through with ``bad = True`` and carry the raw line instead of typed values.
"""

from __future__ import annotations

from datetime import date
from typing import Any, Optional, Sequence

from repro.query.schema import Schema


class HailRecord:
    """One (possibly projected) record of a HAIL block."""

    __slots__ = ("schema", "_values", "_positions", "bad", "raw_line")

    def __init__(
        self,
        schema: Schema,
        values: Sequence[Any],
        positions: Optional[Sequence[int]] = None,
        bad: bool = False,
        raw_line: Optional[str] = None,
    ) -> None:
        self.schema = schema
        self._values = tuple(values)
        if positions is None:
            positions = tuple(range(1, len(schema) + 1))
        self._positions = tuple(positions)
        if len(self._values) != len(self._positions):
            raise ValueError("values and positions must have the same length")
        self.bad = bad
        self.raw_line = raw_line

    # ------------------------------------------------------------------ typed getters
    def get(self, position: int) -> Any:
        """Value of the attribute at 1-based ``position`` of the original schema."""
        try:
            slot = self._positions.index(position)
        except ValueError:
            raise KeyError(
                f"attribute @{position} was not projected (available: {self._positions})"
            ) from None
        return self._values[slot]

    def get_by_name(self, name: str) -> Any:
        """Value of the attribute called ``name``.

        Census keep list (``tests/test_census.py``): paper Section 4.1, the map function's API.
        """
        return self.get(self.schema.index_of(name) + 1)

    def get_int(self, position: int) -> int:
        """Integer attribute getter (``v.getInt(1)`` in the paper's example).

        Census keep list (``tests/test_census.py``): paper Section 4.1, the map function's API.
        """
        return int(self.get(position))

    def get_float(self, position: int) -> float:
        """Floating-point attribute getter.

        Census keep list (``tests/test_census.py``): paper Section 4.1, the map function's API.
        """
        return float(self.get(position))

    def get_string(self, position: int) -> str:
        """String attribute getter.

        Census keep list (``tests/test_census.py``): paper Section 4.1, the map function's API.
        """
        return str(self.get(position))

    def get_date(self, position: int) -> date:
        """Date attribute getter.

        Census keep list (``tests/test_census.py``): paper Section 4.1, the map function's API.
        """
        value = self.get(position)
        if not isinstance(value, date):
            raise TypeError(f"attribute @{position} is not a date: {value!r}")
        return value

    # ------------------------------------------------------------------ views
    @property
    def values(self) -> tuple:
        """The projected values, in projection order."""
        return self._values

    @property
    def positions(self) -> tuple:
        """The 1-based schema positions of the projected values."""
        return self._positions

    def as_tuple(self) -> tuple:
        """The projected values as a plain tuple (what query results collect)."""
        return self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HailRecord):
            return NotImplemented
        return (
            self._values == other._values
            and self._positions == other._positions
            and self.bad == other.bad
        )

    def __hash__(self) -> int:
        return hash((self._values, self._positions, self.bad))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.bad:
            return f"HailRecord(bad={self.raw_line!r})"
        pairs = ", ".join(f"@{p}={v!r}" for p, v in zip(self._positions, self._values))
        return f"HailRecord({pairs})"
