"""Property-based tests for schemas, serialization and PAX blocks."""

from datetime import date, timedelta

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.hail.hail_block import HailBlock
from repro.layouts import serialization
from repro.layouts.pax import PaxBlock
from repro.layouts.row import TextRowCodec
from repro.query.schema import Field, FieldType, Schema

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
def test_pax_round_trip_and_sizes(records):
    block = PaxBlock.from_records(_SCHEMA, records)
    assert block.records() == list(records)
    assert block.size_bytes() == sum(_SCHEMA.binary_size(r) for r in records)
    restored = PaxBlock.from_bytes(_SCHEMA, block.to_bytes(), len(records))
    assert restored.records() == list(records)


@given(record=_record)
@settings(max_examples=150, deadline=None)
def test_record_serialization_round_trip(record):
    payload = b"".join(map(serialization.encode_value, _SCHEMA.fields, record))
    decoded, consumed = [], 0
    for f in _SCHEMA.fields:
        value, consumed = serialization.decode_value(f, payload, consumed)
        decoded.append(value)
    assert tuple(decoded) == record
    assert consumed == len(payload)
    assert len(payload) == _SCHEMA.binary_size(record)


@given(records=st.lists(_record, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_hail_block_preserves_record_multiset_under_any_sort_attribute(records):
    for attribute in ("id", "day", "tag"):
        block = HailBlock.build(_SCHEMA, records, sort_attribute=attribute, partition_size=4)
        column = block.pax.column(attribute)
        assert list(column) == sorted(column)
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
    assert PaxBlock.from_records(schema, []).size_bytes() == 0

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
        decoded = serialization.decode_column_at(f, reference, len(column), 0)[0]
        assert decoded == tuple(values) == column
        # Mid-payload, as from_bytes decodes it: same values, same end offset.
        assert serialization.decode_column_at(f, b"\x07" + reference + b"\x07", len(column), 1) == (
            tuple(values),
            end + 1,
        )
        wire += reference
    assert block.to_bytes() == wire
    assert len(wire) == block.size_bytes()
    assert PaxBlock.from_bytes(schema, wire, len(rows)).columns == block.columns
    if rows:  # one byte short — in whichever column comes last — must raise, never shorten
        with pytest.raises((struct.error, ValueError)):
            PaxBlock.from_bytes(schema, wire[:-1], len(rows))


#: Day numbers of ``date.min`` and ``date.max``: the range a DATE column decodes back.
_MIN_DAY, _MAX_DAY = (serialization.date_to_days(day) for day in (date.min, date.max))


@given(
    days=st.lists(
        st.one_of(st.dates(), st.integers(min_value=_MIN_DAY, max_value=_MAX_DAY)), max_size=30
    ),
    pre_converted=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_date_column_of_day_numbers_encodes_like_the_per_value_codec(days, pre_converted):
    # A DATE column may hold day numbers already converted (``date_to_days`` accepts them):
    # the ordinal fast path rejects them and the per-value path encodes them.
    f = Field("day", FieldType.DATE)
    values = [serialization.date_to_days(day) for day in days] if pre_converted else days
    reference = b"".join(serialization.encode_value(f, value) for value in values)
    assert serialization.encode_column(f, values) == reference
    assert serialization.encode_column(f, tuple(values)) == reference
    decoded = serialization.decode_column_at(f, reference, len(values), 0)[0]
    assert tuple(map(serialization.date_to_days, decoded)) == tuple(
        map(serialization.date_to_days, values)
    )


@given(values=st.lists(st.floats(min_value=-3e38, max_value=3e38), max_size=20))
@settings(max_examples=60, deadline=None)
def test_float_column_rounds_exactly_like_the_per_value_codec(values):
    f = Field("ratio", FieldType.FLOAT)
    reference = b"".join(serialization.encode_value(f, value) for value in values)
    assert serialization.encode_column(f, values) == reference
    assert serialization.decode_column_at(f, reference, len(values), 0)[0] == tuple(
        _decode_by_value(f, reference, len(values))[0]
    )


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
        serialization.decode_column_at(f, payload[:-1], len(values), 0)[0]
    with pytest.raises((struct.error, ValueError)):  # what the per-value decoder does
        _decode_by_value(f, payload[:-1], len(values))
    # Inside a string column that is not the last one: the next column must not be misread.
    schema = Schema.of(("s", FieldType.STRING), ("n", FieldType.INT), name="cut")
    block = PaxBlock.from_records(schema, [("ab", 1), ("cd", 2)])
    wire = block.to_bytes()
    assert PaxBlock.from_bytes(schema, wire, 2).columns == block.columns
    with pytest.raises((struct.error, ValueError)):
        PaxBlock.from_bytes(schema, wire[:5] + wire[6:], 2)  # second terminator cut out


# ------------------------------------------------------------------ column measure == row-wise measure
_MIXED_TEXT = st.text(
    alphabet=st.characters(blacklist_characters="\n\x00", blacklist_categories=("Cs",)),
    max_size=8,
)
#: Values of exactly their column's value type (``float``, ``date`` and ``str`` columns take a
#: shortcut: a C-level method, or a measure without formatting; ``int`` columns keep ``str``),
#: including those a shortcut could get wrong: dates before year 1000, multi-byte strings and
#: strings holding the delimiter, ``-0.0``, ``nan`` and ``inf``.
_EXACT_TEXT_VALUES = {
    FieldType.INT: _VALUES[FieldType.INT],
    FieldType.BIGINT: _VALUES[FieldType.BIGINT],
    FieldType.FLOAT: st.one_of(
        _VALUES[FieldType.FLOAT], st.sampled_from((-0.0, math.nan, math.inf, -math.inf))
    ),
    FieldType.DOUBLE: st.floats(),
    FieldType.DATE: st.dates(),
    FieldType.STRING: st.one_of(
        st.sampled_from(("", "é", "日本語", "a|b", "x::y", "||")), _MIXED_TEXT
    ),
}
#: Plus what the formatters also accept, each breaking its column's shortcut: ``bool`` in
#: INT/BIGINT columns, ints in FLOAT/DOUBLE columns, ``datetime`` values (a ``date`` subclass
#: whose ``isoformat`` is longer than 10 characters) and non-``date`` values in DATE columns,
#: and non-``str`` values in STRING columns.
_TEXT_VALUES = {
    FieldType.INT: st.one_of(_EXACT_TEXT_VALUES[FieldType.INT], st.booleans()),
    FieldType.BIGINT: st.one_of(_EXACT_TEXT_VALUES[FieldType.BIGINT], st.booleans()),
    FieldType.FLOAT: st.one_of(
        _EXACT_TEXT_VALUES[FieldType.FLOAT], st.integers(-10**6, 10**6)
    ),
    FieldType.DOUBLE: st.one_of(
        _EXACT_TEXT_VALUES[FieldType.DOUBLE], st.integers(-10**12, 10**12)
    ),
    FieldType.DATE: st.one_of(
        _EXACT_TEXT_VALUES[FieldType.DATE], st.datetimes(), st.integers(0, 20000), st.just("2011-09-17")
    ),
    FieldType.STRING: st.one_of(
        _EXACT_TEXT_VALUES[FieldType.STRING],
        st.integers(),
        st.floats(allow_nan=False),
        st.none(),
        st.dates(),
    ),
}


@st.composite
def _text_schema_and_rows(draw):
    ftypes = draw(st.lists(st.sampled_from(list(FieldType)), min_size=1, max_size=6))
    delimiter = draw(st.sampled_from(("|", ",", "::", "→|")))
    schema = Schema.of(
        *((f"f{i}", ftype) for i, ftype in enumerate(ftypes)), name="text", delimiter=delimiter
    )
    # Per column, only exact values (its shortcut applies) or any the formatter accepts.
    values = [draw(st.sampled_from((_EXACT_TEXT_VALUES, _TEXT_VALUES)))[f] for f in ftypes]
    rows = draw(st.lists(st.tuples(*values), max_size=12))
    # Fewer and more rows than the 64-row sample, from few drawn rows: the sample is positional.
    return schema, rows * draw(st.sampled_from((1, 1, 7, 30)))


@given(schema_and_rows=_text_schema_and_rows())
@settings(max_examples=200, deadline=None)
def test_column_text_measure_is_the_row_wise_measure(schema_and_rows):
    from repro.hdfs import TextBlockPayload

    schema, rows = schema_and_rows
    block = PaxBlock.from_records(schema, rows)
    text_bytes = block.text_size_bytes()
    assert text_bytes == sum(schema.text_size(row) for row in rows)
    string_share, reference = block.sample_string_share(), schema.string_byte_fraction(rows[:64])
    assert string_share == reference and repr(string_share) == repr(reference)  # same bits
    lines = [schema.format_record(row) for row in rows]
    assert lines == [
        schema.delimiter.join(f.format(value) for f, value in zip(schema.fields, row))
        for row in rows
    ]
    assert schema.format_records(rows) == tuple(map(schema.format_record, rows))
    assert schema.format_records(iter(rows)) == tuple(lines)
    payload = TextBlockPayload(lines)
    assert payload.size_bytes() == len(payload.to_bytes()) == text_bytes


def test_format_records_raises_the_row_wise_arity_error():
    good = (1, 2.5, date(2011, 9, 17), "x")
    rows = [good, good[:3], good + ("extra",)]
    with pytest.raises(ValueError) as by_column:
        _SCHEMA.format_records(rows)
    with pytest.raises(ValueError) as by_row:
        tuple(map(_SCHEMA.format_record, rows))
    assert str(by_column.value) == str(by_row.value)
    assert "record has 3 values" in str(by_column.value)


def _offsets_and_size_by_value(f, values, partition_size):
    offsets, position = [], 0
    for i, value in enumerate(values):
        if i % partition_size == 0:
            offsets.append(position)
        position += f.binary_size(value)
    return offsets, position


@given(
    ftype=st.sampled_from((FieldType.STRING, FieldType.STRING, FieldType.INT, FieldType.DOUBLE)),
    values=st.lists(_TEXT_VALUES[FieldType.STRING], max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_offsets_walk_equals_the_per_value_reference(ftype, values):
    f = Field("v", ftype)
    for partition_size in {1, 7, max(1, len(values)), len(values) + 1}:
        expected = _offsets_and_size_by_value(f, values, partition_size)
        assert serialization.variable_offsets_and_size(f, values, partition_size) == expected
    with pytest.raises(ValueError):
        serialization.variable_offsets_and_size(f, values, 0)


def test_offsets_walk_on_an_empty_and_on_a_multi_byte_column():
    f = Field("v", FieldType.STRING)
    assert serialization.variable_offsets_and_size(f, [], 3) == ([], 0)
    # "é" is 2 bytes, "日本語" 9, "" 0 — each plus its terminating zero.
    assert serialization.variable_offsets_and_size(f, ["é", "日本語", "", "ab"], 2) == ([0, 13], 17)
    block = PaxBlock.from_records(Schema([f], name="one"), [("é",), ("日本語",), ("",), ("ab",)])
    assert block.size_bytes() == 17 == len(block.to_bytes())


@pytest.mark.parametrize(
    "bad_record, error",
    [
        ((1, "short"), ValueError),  # wrong arity
        ((1, "long", 1.0, "extra"), ValueError),
        ((1, "name", "not-a-number"), ValueError),  # non-numeric value in a DOUBLE column
        ((1, "name", None), TypeError),
    ],
)
@pytest.mark.parametrize("system_name", ["HAIL", "Hadoop"])
def test_upload_still_raises_the_row_wise_measures_error(system_name, bad_record, error):
    from repro.baselines import HadoopSystem
    from repro.cluster import Cluster
    from repro.hail.system import HailSystem

    schema = Schema.of(
        ("id", FieldType.INT), ("name", FieldType.STRING), ("score", FieldType.DOUBLE), name="s"
    )
    with pytest.raises(error):  # the reference: what measuring this record row-wise raises
        schema.text_size(bad_record)
    cluster = Cluster.homogeneous(4, seed=1)
    system = HailSystem(cluster, ["id"]) if system_name == "HAIL" else HadoopSystem(cluster)
    rows = [(0, "ok", 0.5), bad_record, (2, "ok", 1.5)]
    with pytest.raises(error):
        system.upload("/bad", rows, schema, rows_per_block=10, client_nodes=[0])
    # Raised on the client, before the block was registered anywhere.
    assert system.hdfs.namenode.file_blocks("/bad") == []
    assert system.hdfs.total_stored_bytes() == 0
