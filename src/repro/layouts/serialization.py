"""Binary value serialization for blocks.

The HAIL client converts text rows to a binary representation before upload.  These helpers
implement the value-level encoding: fixed-size types use native ``struct`` packing, variable
size values (strings) are stored zero-terminated, exactly as described in Section 3.5
("we store variable-sized attributes as a sequence of zero-terminated values").

Two codecs share the one byte format.  The per-value one (:func:`encode_value` /
:func:`decode_value`) is the reference and what the row layout uses; the column one
(:func:`encode_column` / :func:`decode_column_at`) moves a whole PAX minipage per call — one
``struct`` pack per fixed-width column, one join and one UTF-8 pass per string column — with
bit-identical bytes (``tests/test_property_layouts.py``).  Checksums, journal and restore use it.
"""

from __future__ import annotations

import struct
from datetime import date
from itertools import accumulate
from typing import Any, Iterable, Sequence

from repro.layouts.schema import Field, FieldType, Schema

_EPOCH = date(1970, 1, 1)

#: ``struct`` type code per fixed-width type; a column of ``n`` values packs as ``<{n}{code}``.
_STRUCT_CODES: dict[FieldType, str] = {
    FieldType.INT: "i",
    FieldType.BIGINT: "q",
    FieldType.FLOAT: "f",
    FieldType.DOUBLE: "d",
    FieldType.DATE: "i",
}
_STRUCT_FORMATS: dict[FieldType, str] = {ftype: "<" + code for ftype, code in _STRUCT_CODES.items()}


def encode_value(field: Field, value: Any) -> bytes:
    """Encode one typed value as bytes according to its field type."""
    ftype = field.ftype
    if ftype == FieldType.STRING:
        return str(value).encode("utf-8") + b"\x00"
    if ftype == FieldType.DATE:
        value = date_to_days(value)
    try:
        return struct.pack(_STRUCT_FORMATS[ftype], value)
    except struct.error as exc:
        raise ValueError(f"cannot encode {value!r} for field {field.name!r} ({ftype.value})") from exc


def decode_value(field: Field, payload: bytes, offset: int = 0) -> tuple[Any, int]:
    """Decode one value from ``payload`` starting at ``offset``.

    Returns the decoded value and the offset just past it.
    """
    ftype = field.ftype
    if ftype == FieldType.STRING:
        end = payload.index(b"\x00", offset)
        return payload[offset:end].decode("utf-8"), end + 1
    fmt = _STRUCT_FORMATS[ftype]
    size = struct.calcsize(fmt)
    (raw,) = struct.unpack_from(fmt, payload, offset)
    if ftype == FieldType.DATE:
        return days_to_date(raw), offset + size
    return raw, offset + size


def encode_record(schema: Schema, record: Sequence[Any]) -> bytes:
    """Encode one record as a concatenation of its encoded values (binary row layout)."""
    if len(record) != len(schema.fields):
        raise ValueError(
            f"record arity {len(record)} does not match schema {schema.name!r} ({len(schema.fields)})"
        )
    return b"".join(encode_value(f, v) for f, v in zip(schema.fields, record))


def decode_record(schema: Schema, payload: bytes, offset: int = 0) -> tuple[tuple, int]:
    """Decode one record from ``payload`` starting at ``offset``."""
    values = []
    for field in schema.fields:
        value, offset = decode_value(field, payload, offset)
        values.append(value)
    return tuple(values), offset


def encode_column(field: Field, values: Iterable[Any]) -> bytes:
    """Encode a whole column (one PAX minipage), byte-identical to joining :func:`encode_value`.

    A value the batch pack rejects sends the column through the per-value reference, which
    raises its own exception naming the field and the value.
    """
    if not isinstance(values, (list, tuple)):
        values = list(values)
    ftype = field.ftype
    try:
        if ftype is FieldType.STRING:
            return ("\x00".join(map(str, values)) + "\x00").encode("utf-8") if values else b""
        if ftype is FieldType.DATE:
            values = list(map(date_to_days, values))
        return struct.pack(f"<{len(values)}{_STRUCT_CODES[ftype]}", *values)
    except (struct.error, OverflowError, TypeError, ValueError):
        return b"".join(encode_value(field, v) for v in values)


def decode_column_at(
    field: Field, payload: bytes, count: int, offset: int
) -> tuple[tuple[Any, ...], int]:
    """Decode ``count`` values of one column starting at ``offset``.

    Returns the values, as the tuple a ``PaxBlock`` adopts, and the offset just past them,
    like :func:`decode_value`.  A payload too short for ``count`` values raises
    (``struct.error`` for a fixed-width column, ``ValueError`` for a string column), exactly
    where the per-value decoder would.
    """
    ftype = field.ftype
    if ftype is FieldType.STRING:
        if count == 0:
            return (), offset
        parts = payload[offset:].split(b"\x00", count)
        if len(parts) <= count:
            raise ValueError(f"payload ends inside column {field.name!r} ({count} values)")
        end = len(payload) - len(parts[count])
        return tuple(payload[offset : end - 1].decode("utf-8").split("\x00")), end
    fmt = f"<{count}{_STRUCT_CODES[ftype]}"
    values = struct.unpack_from(fmt, payload, offset)
    if ftype is FieldType.DATE:
        values = tuple(map(days_to_date, values))
    return values, offset + struct.calcsize(fmt)


def decode_column(field: Field, payload: bytes, count: int) -> tuple[Any, ...]:
    """Decode ``count`` values of one column from ``payload``."""
    return decode_column_at(field, payload, count, 0)[0]


def date_to_days(value: Any) -> int:
    """Convert a date (or pre-converted int) to days since the Unix epoch."""
    if isinstance(value, date):
        return (value - _EPOCH).days
    return int(value)


def days_to_date(days: int) -> date:
    """Convert days since the Unix epoch back to a :class:`datetime.date`."""
    return date.fromordinal(_EPOCH.toordinal() + int(days))


def variable_offsets(field: Field, values: Sequence[Any], partition_size: int) -> list[int]:
    """Offsets of every ``partition_size``-th value within an encoded variable-size column.

    HAIL stores one offset per logical index partition for variable-size attributes so that a
    qualifying partition can be located without scanning the whole column (Section 3.5,
    "Accessing Variable-size Attributes").
    """
    return variable_offsets_and_size(field, values, partition_size)[0]


def variable_offsets_and_size(
    field: Field, values: Sequence[Any], partition_size: int
) -> tuple[list[int], int]:
    """:func:`variable_offsets` plus the encoded size of the whole column.

    The walk that places the offsets ends on the column's byte size, so a block that needs
    both (every ``HailBlock``) visits its variable-size values once — as one C-level pass
    (``str`` → UTF-8 → ``len`` → running sum), equal to summing :meth:`Field.binary_size`.
    """
    if partition_size <= 0:
        raise ValueError("partition_size must be positive")
    count = len(values)
    starts = range(0, count, partition_size)
    fixed = field.ftype.fixed_size
    if fixed is not None:
        return [fixed * start for start in starts], fixed * count
    # before[i] = encoded bytes of values[:i] without their terminating zeros (one per value).
    before = list(accumulate(map(len, map(str.encode, map(str, values))), initial=0))
    return [before[start] + start for start in starts], before[-1] + count
