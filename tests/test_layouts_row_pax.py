"""Tests for the text/binary row codecs and the PAX block layout."""

import pytest

from repro.layouts import BinaryRowCodec, PaxBlock, TextRowCodec


# --------------------------------------------------------------------------- text codec
def test_text_codec_round_trip(simple_schema, simple_records):
    codec = TextRowCodec(simple_schema)
    text = codec.encode(simple_records)
    assert codec.decode(text) == simple_records


def test_text_codec_lenient_separates_bad_rows(simple_schema, simple_records):
    codec = TextRowCodec(simple_schema)
    lines = codec.encode_lines(simple_records[:5])
    lines.insert(2, "this|is|not-a-valid-row-at-all|x")
    lines.insert(4, "garbage without delimiters")
    records, bad = codec.decode_lenient("\n".join(lines))
    assert records == simple_records[:5]
    assert len(bad) == 2


def test_text_codec_size_accounts_newlines(simple_schema, simple_records):
    codec = TextRowCodec(simple_schema)
    size = codec.size_bytes(simple_records)
    assert size == sum(simple_schema.text_size(r) for r in simple_records)


# --------------------------------------------------------------------------- binary codec
def test_binary_codec_round_trip(simple_schema, simple_records):
    codec = BinaryRowCodec(simple_schema)
    payload = codec.encode(simple_records)
    assert codec.decode(payload) == simple_records
    assert codec.size_bytes(simple_records) == len(payload)


def test_binary_codec_decode_with_count(simple_schema, simple_records):
    codec = BinaryRowCodec(simple_schema)
    payload = codec.encode(simple_records)
    assert codec.decode(payload, count=3) == simple_records[:3]


# --------------------------------------------------------------------------- PAX
def test_pax_from_records_and_reconstruct(simple_schema, simple_records):
    block = PaxBlock.from_records(simple_schema, simple_records)
    assert len(block) == len(simple_records)
    assert block.records() == simple_records
    assert block.record(3) == simple_records[3]
    assert block.column("id") == tuple(r[0] for r in simple_records)
    assert block.column_at(1) == tuple(r[1] for r in simple_records)


def test_pax_projection(simple_schema, simple_records):
    block = PaxBlock.from_records(simple_schema, simple_records)
    projected = block.project([0, 2, 4], [2, 0])
    assert projected == [(simple_records[i][2], simple_records[i][0]) for i in (0, 2, 4)]


def test_pax_reorder_permutes_all_columns(simple_schema, simple_records):
    block = PaxBlock.from_records(simple_schema, simple_records)
    permutation = list(reversed(range(len(simple_records))))
    reordered = block.reorder(permutation)
    assert reordered.records() == list(reversed(simple_records))
    with pytest.raises(ValueError):
        block.reorder([0, 1])


def test_pax_size_accounting(simple_schema, simple_records):
    block = PaxBlock.from_records(simple_schema, simple_records)
    total = block.size_bytes()
    by_column = sum(block.column_size_bytes(f.name) for f in simple_schema.fields)
    assert total == by_column
    assert block.projected_size_bytes(["id"]) == 4 * len(simple_records)
    assert block.projected_size_bytes(["id", "score"]) == 12 * len(simple_records)


def test_pax_serialization_round_trip(simple_schema, simple_records):
    block = PaxBlock.from_records(simple_schema, simple_records)
    payload = block.to_bytes()
    restored = PaxBlock.from_bytes(simple_schema, payload, block.num_rows)
    assert restored.records() == simple_records
    assert len(payload) == block.size_bytes()


def test_pax_rejects_inconsistent_input(simple_schema, simple_records):
    with pytest.raises(ValueError):
        PaxBlock(simple_schema, [[1], [2]], 1)
    with pytest.raises(ValueError):
        PaxBlock(simple_schema, [[1], ["a"], [2.0, 3.0]], 1)
    with pytest.raises(ValueError):
        PaxBlock.from_records(simple_schema, [(1, "a")])


def test_pax_empty_block(simple_schema):
    block = PaxBlock.empty(simple_schema)
    assert len(block) == 0
    assert block.size_bytes() == 0
    assert block.records() == []
    with pytest.raises(IndexError):
        block.record(0)
