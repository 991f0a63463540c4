"""Tests for schemas, fields and text parsing/formatting."""

from datetime import date

import pytest

from repro.query.schema import BadRecordError, Field, FieldType, Schema


@pytest.fixture
def schema() -> Schema:
    return Schema.of(
        ("id", FieldType.INT),
        ("when", FieldType.DATE),
        ("amount", FieldType.DOUBLE),
        ("label", FieldType.STRING),
        name="t",
    )


def test_field_type_fixed_sizes():
    assert FieldType.INT.fixed_size == 4
    assert FieldType.BIGINT.fixed_size == 8
    assert FieldType.DOUBLE.fixed_size == 8
    assert FieldType.DATE.fixed_size == 4
    assert FieldType.STRING.fixed_size is None
    assert FieldType.STRING.is_fixed is False


def test_field_parse_and_format_round_trip():
    f = Field("when", FieldType.DATE)
    assert f.parse("2011-10-03") == date(2011, 10, 3)
    assert f.format(date(2011, 10, 3)) == "2011-10-03"
    d = Field("amount", FieldType.DOUBLE)
    assert d.parse(d.format(123.4567)) == pytest.approx(123.4567)


def test_field_parse_bad_values_raise():
    with pytest.raises(BadRecordError):
        Field("id", FieldType.INT).parse("abc")
    with pytest.raises(BadRecordError):
        Field("when", FieldType.DATE).parse("not-a-date")
    with pytest.raises(BadRecordError):
        Field("when", FieldType.DATE).parse("2011-13")


def test_schema_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Schema.of(("a", FieldType.INT), ("a", FieldType.INT))
    with pytest.raises(ValueError):
        Schema([])


def test_schema_lookup_by_name_and_position(schema):
    assert schema.index_of("amount") == 2
    assert schema.field_at_position(1).name == "id"
    assert schema.has_field("label")
    assert not schema.has_field("missing")
    with pytest.raises(KeyError):
        schema.index_of("missing")
    with pytest.raises(IndexError):
        schema.field_at_position(0)
    with pytest.raises(IndexError):
        schema.field_at_position(5)


def test_parse_line_round_trip(schema):
    record = (7, date(2001, 2, 3), 12.5, "hello world")
    line = schema.format_record(record)
    assert schema.parse_line(line) == record


def test_parse_line_wrong_arity_raises(schema):
    with pytest.raises(BadRecordError):
        schema.parse_line("1|2001-01-01|3.5")
    with pytest.raises(BadRecordError):
        schema.parse_line("1|2001-01-01|3.5|x|extra")


def test_parse_line_bad_type_raises(schema):
    with pytest.raises(BadRecordError):
        schema.parse_line("seven|2001-01-01|3.5|x")


def test_format_record_wrong_arity_raises(schema):
    with pytest.raises(ValueError):
        schema.format_record((1, date(2001, 1, 1), 1.0))


def test_text_and_binary_sizes(schema):
    record = (7, date(2001, 2, 3), 12.5, "abc")
    line = schema.format_record(record)
    assert schema.text_size(record) == len(line.encode("utf-8")) + 1
    # 4 (int) + 4 (date) + 8 (double) + len("abc")+1
    assert schema.binary_size(record) == 4 + 4 + 8 + 4


def test_string_byte_fraction(schema):
    records = [(1, date(2000, 1, 1), 2.0, "x" * 50), (2, date(2000, 1, 2), 3.0, "y" * 50)]
    fraction = schema.string_byte_fraction(records)
    assert 0.5 < fraction < 1.0
    all_fixed = Schema.of(("a", FieldType.INT), ("b", FieldType.INT))
    assert all_fixed.string_byte_fraction([(1, 2)]) == 0.0
    assert schema.string_byte_fraction([]) == 0.0

