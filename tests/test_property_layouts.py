"""Property-based tests for schemas, serialization and PAX blocks."""

from datetime import date, timedelta

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.hail.hail_block import HailBlock
from repro.hail.sortindex import is_sorted
from repro.layouts import BinaryRowCodec, FieldType, PaxBlock, Schema, TextRowCodec, serialization
from repro.layouts.schema import Field

_SCHEMA = Schema.of(
    ("id", FieldType.INT),
    ("weight", FieldType.DOUBLE),
    ("day", FieldType.DATE),
    ("tag", FieldType.STRING),
    name="prop",
)

# Text values must not contain the delimiter or newlines for the text codec round trip.
_tag = st.text(
    alphabet=st.characters(blacklist_characters="|\n\r\x00", blacklist_categories=("Cs",)),
    max_size=12,
)
_record = st.tuples(
    st.integers(min_value=-2**31, max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.builds(lambda days: date(1990, 1, 1) + timedelta(days=days), st.integers(0, 20000)),
    _tag,
)
_records = st.lists(_record, min_size=0, max_size=60)


@given(records=_records)
@settings(max_examples=100, deadline=None)
def test_text_codec_round_trip(records):
    codec = TextRowCodec(_SCHEMA)
    decoded = codec.decode(codec.encode(records))
    assert len(decoded) == len(records)
    for original, parsed in zip(records, decoded):
        assert parsed[0] == original[0]
        assert parsed[1] == original[1]
        assert parsed[2] == original[2]
        assert parsed[3] == original[3]


@given(records=_records)
@settings(max_examples=100, deadline=None)
def test_binary_codec_round_trip(records):
    codec = BinaryRowCodec(_SCHEMA)
    assert codec.decode(codec.encode(records)) == list(records)


@given(records=_records)
@settings(max_examples=100, deadline=None)
def test_pax_round_trip_and_sizes(records):
    block = PaxBlock.from_records(_SCHEMA, records)
    assert block.records() == list(records)
    assert block.size_bytes() == sum(_SCHEMA.binary_size(r) for r in records)
    restored = PaxBlock.from_bytes(_SCHEMA, block.to_bytes(), len(records))
    assert restored.records() == list(records)


@given(record=_record)
@settings(max_examples=150, deadline=None)
def test_record_serialization_round_trip(record):
    payload = serialization.encode_record(_SCHEMA, record)
    decoded, consumed = serialization.decode_record(_SCHEMA, payload)
    assert decoded == record
    assert consumed == len(payload)
    assert len(payload) == _SCHEMA.binary_size(record)


@given(records=st.lists(_record, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_hail_block_preserves_record_multiset_under_any_sort_attribute(records):
    for attribute in ("id", "day", "tag"):
        block = HailBlock.build(_SCHEMA, records, sort_attribute=attribute, partition_size=4)
        assert is_sorted(block.pax.column(attribute))
        assert sorted(map(repr, block.pax.records())) == sorted(map(repr, records))


@given(records=_records)
@settings(max_examples=60, deadline=None)
def test_text_size_accounts_every_record(records):
    assert sum(_SCHEMA.text_size(r) for r in records) == len(
        ("\n".join(_SCHEMA.format_record(r) for r in records) + "\n").encode("utf-8")
    ) if records else True


# ------------------------------------------------------------------ carried sizes cannot drift
_VALUES = {
    FieldType.INT: st.integers(min_value=-2**31, max_value=2**31 - 1),
    FieldType.BIGINT: st.integers(min_value=-2**63, max_value=2**63 - 1),
    FieldType.FLOAT: st.floats(allow_nan=False, allow_infinity=False, width=32),
    FieldType.DOUBLE: st.floats(allow_nan=False, allow_infinity=False),
    FieldType.DATE: st.builds(
        lambda days: date(1990, 1, 1) + timedelta(days=days), st.integers(0, 20000)
    ),
    # Empty, ASCII and multi-byte strings: the size is in encoded bytes, not characters.
    FieldType.STRING: st.text(
        alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
        max_size=8,
    ),
}


@st.composite
def _schema_and_rows(draw):
    ftypes = draw(st.lists(st.sampled_from(list(FieldType)), min_size=1, max_size=5))
    schema = Schema.of(*((f"f{i}", ftype) for i, ftype in enumerate(ftypes)), name="sized")
    rows = draw(st.lists(st.tuples(*(_VALUES[ftype] for ftype in ftypes)), max_size=30))
    return schema, rows


def _assert_sizes_exact(block: PaxBlock) -> None:
    """Every carried size equals an independent encode of the block's own values."""
    for f, column in zip(block.schema.fields, block.columns):
        assert block.column_size_bytes(f.name) == len(serialization.encode_column(f, column))
    assert block.size_bytes() == len(block.to_bytes())
    names = block.schema.field_names
    assert block.projected_size_bytes(names[::2]) == sum(map(block.column_size_bytes, names[::2]))
    assert block.projected_size_bytes([]) == 0
    fresh = PaxBlock(block.schema, block.columns, block.num_rows)
    assert fresh.size_bytes() == block.size_bytes()


@given(
    schema_and_rows=_schema_and_rows(),
    seed=st.integers(0, 2**16),
    measure_source_first=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_carried_sizes_equal_an_independent_encode_on_every_construction_path(
    schema_and_rows, seed, measure_source_first
):
    schema, rows = schema_and_rows
    source = PaxBlock.from_records(schema, rows)
    if measure_source_first:  # the table is shared: either side may be the one that fills it
        _assert_sizes_exact(source)
    permutation = list(range(len(rows)))
    random.Random(seed).shuffle(permutation)
    _assert_sizes_exact(source.reorder(permutation))
    _assert_sizes_exact(source)
    _assert_sizes_exact(PaxBlock.from_bytes(schema, source.to_bytes(), len(rows)))
    _assert_sizes_exact(PaxBlock(schema, source.columns, len(rows)))
    assert PaxBlock.empty(schema).size_bytes() == 0

    sort_attribute = schema.field_names[seed % len(schema.fields)]
    built = HailBlock.build(
        schema, rows, sort_attribute, partition_size=4, logical_partition_size=3
    )
    for block in (built, built.resorted(schema.field_names[0]), built.resorted(None)):
        _assert_sizes_exact(block.pax)
        assert block.data_size_bytes() == source.size_bytes()
        assert block.size_bytes() == block.replica_info(0).block_size_bytes


# ------------------------------------------------------------------ batch codec == per-value codec
_INT32 = (-2**31, -1, 0, 1, 2**31 - 1)
_INT64 = (-2**63, -2**31 - 1, 2**31, 2**63 - 1)
_WIRE_VALUES = {
    FieldType.INT: st.one_of(st.sampled_from(_INT32), _VALUES[FieldType.INT]),
    FieldType.BIGINT: st.one_of(st.sampled_from(_INT32 + _INT64), _VALUES[FieldType.BIGINT]),
    FieldType.FLOAT: _VALUES[FieldType.FLOAT],
    # Doubles that float32 would round: the DOUBLE column must keep every bit.
    FieldType.DOUBLE: st.one_of(
        st.sampled_from((0.1, -1e-300, 1.7976931348623157e308)), _VALUES[FieldType.DOUBLE]
    ),
    FieldType.DATE: st.dates(),  # both sides of the epoch, date.min and date.max included
    # Empty, multi-byte and long strings (longer than a checksum chunk).
    FieldType.STRING: st.one_of(
        st.sampled_from(("", "é", "日本語", "x" * 700)),
        st.text(
            alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
            max_size=40,
        ),
    ),
}


@st.composite
def _wire_schema_and_rows(draw):
    ftypes = draw(st.lists(st.sampled_from(list(FieldType)), min_size=1, max_size=6))
    schema = Schema.of(*((f"f{i}", ftype) for i, ftype in enumerate(ftypes)), name="wire")
    rows = draw(st.lists(st.tuples(*(_WIRE_VALUES[ftype] for ftype in ftypes)), max_size=30))
    return schema, rows


def _decode_by_value(f, payload, count):
    values, offset = [], 0
    for _ in range(count):
        value, offset = serialization.decode_value(f, payload, offset)
        values.append(value)
    return values, offset


@given(schema_and_rows=_wire_schema_and_rows())
@settings(max_examples=150, deadline=None)
def test_column_codec_is_bit_identical_to_the_per_value_codec(schema_and_rows):
    schema, rows = schema_and_rows
    block = PaxBlock.from_records(schema, rows)
    wire = b""
    for f, column in zip(schema.fields, block.columns):
        reference = b"".join(serialization.encode_value(f, value) for value in column)
        assert serialization.encode_column(f, column) == reference
        assert serialization.encode_column(f, iter(column)) == reference
        values, end = _decode_by_value(f, reference, len(column))
        assert serialization.decode_column(f, reference, len(column)) == values == column
        # Mid-payload, as from_bytes decodes it: same values, same end offset.
        assert serialization.decode_column_at(f, b"\x07" + reference + b"\x07", len(column), 1) == (
            values,
            end + 1,
        )
        wire += reference
    assert block.to_bytes() == wire
    assert len(wire) == block.size_bytes()
    assert PaxBlock.from_bytes(schema, wire, len(rows)).columns == block.columns
    if rows:  # one byte short — in whichever column comes last — must raise, never shorten
        with pytest.raises((struct.error, ValueError)):
            PaxBlock.from_bytes(schema, wire[:-1], len(rows))


@given(values=st.lists(st.floats(min_value=-3e38, max_value=3e38), max_size=20))
@settings(max_examples=60, deadline=None)
def test_float_column_rounds_exactly_like_the_per_value_codec(values):
    f = Field("ratio", FieldType.FLOAT)
    reference = b"".join(serialization.encode_value(f, value) for value in values)
    assert serialization.encode_column(f, values) == reference
    assert serialization.decode_column(f, reference, len(values)) == _decode_by_value(
        f, reference, len(values)
    )[0]


@pytest.mark.parametrize(
    "ftype, good, bad",
    [
        (FieldType.INT, 7, 2**31),  # out of range
        (FieldType.BIGINT, 7, "seven"),  # not a number
        (FieldType.DOUBLE, 0.5, None),
        (FieldType.FLOAT, 0.5, 1e39),  # too large for float32: OverflowError, not struct.error
        (FieldType.DATE, date(2011, 9, 17), "2011-09-17"),
    ],
)
def test_column_codec_raises_the_per_value_codecs_error(ftype, good, bad):
    f = Field("v", ftype)
    with pytest.raises(Exception) as reference:
        serialization.encode_value(f, bad)
    with pytest.raises(type(reference.value)) as batch:
        serialization.encode_column(f, [good, bad, good])
    assert str(batch.value) == str(reference.value)


@pytest.mark.parametrize(
    "ftype, values", [(FieldType.INT, [1, 2, 3]), (FieldType.STRING, ["ab", "cd"])]
)
def test_column_decoder_raises_on_a_truncated_payload(ftype, values):
    f = Field("v", ftype)
    payload = serialization.encode_column(f, values)
    with pytest.raises((struct.error, ValueError)):
        serialization.decode_column(f, payload[:-1], len(values))
    with pytest.raises((struct.error, ValueError)):  # what the per-value decoder does
        _decode_by_value(f, payload[:-1], len(values))
    # Inside a string column that is not the last one: the next column must not be misread.
    schema = Schema.of(("s", FieldType.STRING), ("n", FieldType.INT), name="cut")
    block = PaxBlock.from_records(schema, [("ab", 1), ("cd", 2)])
    wire = block.to_bytes()
    assert PaxBlock.from_bytes(schema, wire, 2).columns == block.columns
    with pytest.raises((struct.error, ValueError)):
        PaxBlock.from_bytes(schema, wire[:5] + wire[6:], 2)  # second terminator cut out
