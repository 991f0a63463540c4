"""Record schemas.

The HAIL client parses every uploaded row according to a user-specified schema (Section 3.1).
Rows that do not match the schema ("bad records") are separated into a special part of the data
block and handed to the map function unchanged at query time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import date
from typing import Any, Callable, Iterable, Sequence


class BadRecordError(ValueError):
    """Raised when a text row cannot be parsed according to the schema."""


#: Fixed binary width per type tag (``None`` = variable size).
_FIXED_SIZES: dict[str, int | None] = {
    "int": 4,
    "bigint": 8,
    "float": 4,
    "double": 8,
    "date": 4,
    "string": None,
}


def _format_float(value: Any) -> str:
    # repr round-trips exactly, so text-uploaded and binary-uploaded replicas agree.
    return repr(float(value))


def _format_date(value: Any) -> str:
    return value.isoformat() if isinstance(value, date) else str(value)


#: Text formatter per type tag: what :meth:`Field.format` does, without the per-value dispatch.
_FORMATTERS: dict[str, Callable[[Any], str]] = {
    "int": str,
    "bigint": str,
    "float": _format_float,
    "double": _format_float,
    "date": _format_date,
    "string": str,
}


def _parse_date(token: str) -> date:
    """Parse ``YYYY-MM-DD`` into a :class:`datetime.date`."""
    parts = token.split("-")
    if len(parts) != 3:
        raise ValueError(f"not an ISO date: {token!r}")
    year, month, day = (int(part) for part in parts)
    return date(year, month, day)


def _parse_string(token: str) -> str:
    return token


#: Text parser per type tag: what :meth:`Field.parse` does, raising the converter's own
#: ``ValueError``/``TypeError`` (no :class:`BadRecordError` wrapping), so a column of tokens can
#: be parsed with one ``map``.
_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "bigint": int,
    "float": float,
    "double": float,
    "date": _parse_date,
    "string": _parse_string,
}


class FieldType(enum.Enum):
    """Supported attribute types and their fixed binary widths (None = variable size)."""

    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    DOUBLE = "double"
    DATE = "date"
    STRING = "string"

    def __init__(self, tag: str) -> None:
        # Plain attributes bound once per member: size accounting reads them once per value.
        #: Binary width in bytes, or ``None`` for variable-size types.
        self.fixed_size: int | None = _FIXED_SIZES[tag]
        #: True for fixed-width types.
        self.is_fixed: bool = self.fixed_size is not None
        #: Typed value → text token, equal to :meth:`Field.format` for a field of this type.
        self.format_value: Callable[[Any], str] = _FORMATTERS[tag]
        #: Text token → typed value, equal to :meth:`Field.parse` wherever that succeeds.
        self.parse_value: Callable[[str], Any] = _PARSERS[tag]


@dataclass(frozen=True)
class Field:
    """One attribute of a schema."""

    name: str
    ftype: FieldType

    def parse(self, token: str) -> Any:
        """Parse one text token into a typed Python value.

        Raises
        ------
        BadRecordError
            If the token cannot be converted to the field's type.
        """
        try:
            return self.ftype.parse_value(token)
        except (ValueError, TypeError) as exc:
            raise BadRecordError(
                f"cannot parse {token!r} as {self.ftype.value} for field {self.name!r}"
            ) from exc

    def format(self, value: Any) -> str:
        """Format a typed value back to its text token.

        Census keep list (``tests/test_census.py``): ground truth for tests (the per-value
        formatter ``format_record`` must agree with).
        """
        if self.ftype == FieldType.DATE:
            if isinstance(value, date):
                return value.isoformat()
            return str(value)
        if self.ftype in (FieldType.FLOAT, FieldType.DOUBLE):
            # repr round-trips exactly, so text-uploaded and binary-uploaded replicas agree.
            return repr(float(value))
        return str(value)

    def binary_size(self, value: Any) -> int:
        """Binary size of ``value`` in this field (strings: bytes + terminating zero).

        Census keep list (``tests/test_census.py``): ground truth for tests (the per-value size the
        column sizes must sum to).
        """
        fixed = self.ftype.fixed_size
        if fixed is not None:
            return fixed
        return len(str(value).encode("utf-8")) + 1


class Schema:
    """An ordered list of fields plus parsing/formatting helpers.

    Attribute positions are 1-based in the paper's ``@HailQuery`` annotations (``@1`` is the
    first attribute); this class exposes both 0-based indexing (:meth:`index_of`) and the
    1-based convention (:meth:`field_at_position`).
    """

    def __init__(self, fields: Sequence[Field], name: str = "schema", delimiter: str = "|") -> None:
        if not fields:
            raise ValueError("a schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in schema: {names}")
        self.name = name
        self.fields: tuple[Field, ...] = tuple(fields)
        self.delimiter = delimiter
        self._index = {f.name: i for i, f in enumerate(self.fields)}
        self._formatters = tuple(f.ftype.format_value for f in self.fields)

    # ------------------------------------------------------------------ construction helpers
    @classmethod
    def of(cls, *specs: tuple[str, FieldType], name: str = "schema", delimiter: str = "|") -> "Schema":
        """Build a schema from ``(name, type)`` pairs."""
        return cls([Field(n, t) for n, t in specs], name=name, delimiter=delimiter)

    # ------------------------------------------------------------------ lookup
    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    @property
    def field_names(self) -> list[str]:
        """Names of all fields, in order."""
        return [f.name for f in self.fields]

    def field(self, name: str) -> Field:
        """Field by name. Raises ``KeyError`` for unknown names."""
        return self.fields[self.index_of(name)]

    def index_of(self, name: str) -> int:
        """0-based position of a field by name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"schema {self.name!r} has no field {name!r}; fields: {self.field_names}") from None

    def field_at_position(self, position: int) -> Field:
        """Field at a 1-based attribute position."""
        if not 1 <= position <= len(self.fields):
            raise IndexError(f"attribute position @{position} out of range 1..{len(self.fields)}")
        return self.fields[position - 1]

    def has_field(self, name: str) -> bool:
        """True if a field with ``name`` exists."""
        return name in self._index

    # ------------------------------------------------------------------ parsing / formatting
    def parse_line(self, line: str) -> tuple:
        """Parse one text row into a tuple of typed values.

        Raises
        ------
        BadRecordError
            If the row has the wrong number of attributes or a token fails type conversion.
        """
        tokens = line.rstrip("\n").split(self.delimiter)
        if len(tokens) != len(self.fields):
            raise BadRecordError(
                f"expected {len(self.fields)} attributes, found {len(tokens)}: {line!r}"
            )
        return tuple(f.parse(token) for f, token in zip(self.fields, tokens))

    def format_record(self, record: Sequence[Any]) -> str:
        """Format a typed record back into its text-row representation.

        One formatter call per value, bound per type on :class:`FieldType`; the result equals
        joining :meth:`Field.format` over the record (``tests/test_property_layouts.py``).
        """
        if len(record) != len(self.fields):
            raise ValueError(
                f"record has {len(record)} values but schema {self.name!r} has {len(self.fields)} fields"
            )
        return self.delimiter.join([fmt(value) for fmt, value in zip(self._formatters, record)])

    # ------------------------------------------------------------------ size accounting
    def text_size(self, record: Sequence[Any]) -> int:
        """Bytes of the text-row representation (including the newline)."""
        return len(self.format_record(record).encode("utf-8")) + 1

    def binary_size(self, record: Sequence[Any]) -> int:
        """Bytes of the binary representation of one record.

        Census keep list (``tests/test_census.py``): ground truth for tests (the per-record size
        the column sizes must sum to).
        """
        return sum(f.binary_size(value) for f, value in zip(self.fields, record))

    def string_byte_fraction(self, records: Iterable[Sequence[Any]]) -> float:
        """Fraction of the text bytes that belongs to string (variable-size) fields.

        Used by the cost model to split parsing work between the expensive string path and the
        cheaper numeric-conversion path; computed over a sample of records.

        Census keep list (``tests/test_census.py``): ground truth for tests
        (``PaxBlock.sample_string_share`` must equal it).
        """
        string_bytes = 0
        total_bytes = 0
        for record in records:
            for f, value in zip(self.fields, record):
                token_bytes = len(f.format(value).encode("utf-8")) + 1
                total_bytes += token_bytes
                if not f.ftype.is_fixed:
                    string_bytes += token_bytes
        if total_bytes == 0:
            return 0.0
        return string_bytes / total_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{f.name}:{f.ftype.value}" for f in self.fields)
        return f"Schema({self.name!r}, [{cols}])"
