"""Tests for binary value/column serialization."""

from datetime import date

import pytest

from repro.layouts import FieldType, Schema, serialization
from repro.layouts.schema import Field


@pytest.fixture
def schema() -> Schema:
    return Schema.of(
        ("id", FieldType.INT),
        ("big", FieldType.BIGINT),
        ("ratio", FieldType.DOUBLE),
        ("when", FieldType.DATE),
        ("name", FieldType.STRING),
        name="ser",
    )


def test_encode_decode_fixed_values():
    f = Field("id", FieldType.INT)
    payload = serialization.encode_value(f, 12345)
    assert len(payload) == 4
    value, offset = serialization.decode_value(f, payload)
    assert value == 12345
    assert offset == 4


def test_encode_decode_string_zero_terminated():
    f = Field("name", FieldType.STRING)
    payload = serialization.encode_value(f, "héllo")
    assert payload.endswith(b"\x00")
    value, offset = serialization.decode_value(f, payload)
    assert value == "héllo"
    assert offset == len(payload)


def test_encode_decode_date():
    f = Field("when", FieldType.DATE)
    payload = serialization.encode_value(f, date(2011, 9, 17))
    value, _ = serialization.decode_value(f, payload)
    assert value == date(2011, 9, 17)


def test_date_day_conversion_round_trip():
    assert serialization.days_to_date(serialization.date_to_days(date(1999, 1, 1))) == date(1999, 1, 1)
    assert serialization.date_to_days(0) == 0


def test_encode_value_rejects_bad_fixed_value():
    f = Field("id", FieldType.INT)
    with pytest.raises(ValueError):
        serialization.encode_value(f, "not-an-int")


def test_record_round_trip(schema):
    """A row of every type, value by value, decodes back at the offsets it was written to."""
    record = (1, 2**40, 3.25, date(1992, 12, 22), "aggressive elephant")
    payload = b"".join(map(serialization.encode_value, schema.fields, record))
    assert len(payload) == schema.binary_size(record)
    decoded, offset = [], 0
    for f in schema.fields:
        value, offset = serialization.decode_value(f, payload, offset)
        decoded.append(value)
    assert tuple(decoded) == record
    assert offset == len(payload)


def test_column_round_trip():
    f = Field("name", FieldType.STRING)
    values = ["a", "bb", "ccc", ""]
    payload = serialization.encode_column(f, values)
    decoded = serialization.decode_column_at(f, payload, len(values), 0)
    assert decoded == (tuple(values), len(payload))


def test_variable_offsets_every_nth_value():
    f = Field("name", FieldType.STRING)
    values = ["aa", "b", "cccc", "dd", "e"]
    offsets, size = serialization.variable_offsets_and_size(f, values, partition_size=2)
    # offsets at value 0, 2, 4
    assert offsets == [0, 3 + 2, 3 + 2 + 5 + 3]
    assert size == len(serialization.encode_column(f, values))
    with pytest.raises(ValueError):
        serialization.variable_offsets_and_size(f, values, partition_size=0)
