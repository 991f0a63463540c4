"""Property-based round-trip tests for the persistence codec (`repro.persist.codec`).

Every ``encode_*``/``decode_*`` pair must be a structural identity *through JSON* — the
SQLite backend stores the metadata as ``json.dumps`` output, so each property pushes the
encoded form through a real ``dumps``/``loads`` cycle before decoding (chunk CRCs are the
exception: they travel as packed bytes in a BLOB column, no JSON involved).  Mirrors the
style of ``tests/test_property_layouts.py``.
"""

from __future__ import annotations

import json
from datetime import date, timedelta

from hypothesis import given, settings, strategies as st

from repro.engine.lifecycle import AdaptiveTuner
from repro.hail.replica_info import HailBlockReplicaInfo
from repro.persist import codec
from repro.query.schema import FieldType, Schema

# Attribute names as schemas produce them: identifier-ish, never the field delimiter.
_attribute = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_"),
    min_size=1,
    max_size=12,
)
_date = st.builds(lambda days: date(1990, 1, 1) + timedelta(days=days), st.integers(0, 20000))
# The scalar types schema fields can hold — exactly what zone ranges carry.
_scalar = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    _date,
    st.none(),
)
_zone_ranges = st.one_of(
    st.none(),
    st.lists(st.tuples(_attribute, _scalar, _scalar), max_size=6).map(tuple),
)
_replica_info = st.builds(
    HailBlockReplicaInfo,
    datanode_id=st.integers(0, 64),
    sort_attribute=st.one_of(st.none(), _attribute),
    indexed_attribute=st.one_of(st.none(), _attribute),
    index_size_bytes=st.integers(0, 2**31),
    block_size_bytes=st.integers(0, 2**31),
    num_records=st.integers(0, 10**6),
    pax_layout=st.booleans(),
    origin=st.sampled_from(("upload", "adaptive", "evicted")),
    displaced_plain_replica=st.booleans(),
    zone_ranges=_zone_ranges,
)
_tuner = st.builds(
    AdaptiveTuner,
    offer_rate=st.floats(0.0, 1.0, allow_nan=False),
    budget=st.one_of(st.none(), st.integers(0, 64)),
    jobs_observed=st.integers(0, 10**4),
    total_build_seconds=st.floats(0.0, 1e6, allow_nan=False),
    total_saved_seconds=st.floats(0.0, 1e6, allow_nan=False),
    build_cost_ema=st.one_of(st.none(), st.floats(0.0, 1e3, allow_nan=False)),
    reader_seconds_ema=st.one_of(st.none(), st.floats(0.0, 1e3, allow_nan=False)),
)


def _through_json(encoded):
    """What the SQLite backend actually persists and reads back."""
    return json.loads(json.dumps(encoded))


@given(ranges=_zone_ranges)
@settings(max_examples=100, deadline=None)
def test_zone_ranges_round_trip(ranges):
    decoded = codec.decode_zone_ranges(_through_json(codec.encode_zone_ranges(ranges)))
    assert decoded == ranges


@given(info=_replica_info)
@settings(max_examples=100, deadline=None)
def test_replica_info_round_trip(info):
    decoded = codec.decode_replica_info(_through_json(codec.encode_replica_info(info)))
    assert decoded == info


@given(tuner=st.one_of(st.none(), _tuner))
@settings(max_examples=100, deadline=None)
def test_tuner_round_trip(tuner):
    decoded = codec.decode_tuner(_through_json(codec.encode_tuner(tuner)))
    assert decoded == tuner


@given(tuner=_tuner)
@settings(max_examples=100, deadline=None)
def test_tuner_payload_from_before_the_ledger_split_went_restores_exactly(tuner):
    """A journal written while per-attribute ledgers existed holds two more keys."""
    old = {**codec.encode_tuner(tuner), "per_attribute": False, "ledgers": {}}
    assert codec.decode_tuner(_through_json(old)) == tuner


@given(
    name=_attribute,
    delimiter=st.sampled_from(("|", ",", "\t")),
    fields=st.lists(
        st.tuples(_attribute, st.sampled_from(list(FieldType))),
        min_size=1,
        max_size=8,
        unique_by=lambda spec: spec[0],
    ),
)
@settings(max_examples=100, deadline=None)
def test_schema_round_trip(name, delimiter, fields):
    schema = Schema.of(*fields, name=name, delimiter=delimiter)
    decoded = codec.decode_schema(_through_json(codec.encode_schema(schema)))
    assert decoded.name == schema.name
    assert decoded.delimiter == schema.delimiter
    assert decoded.fields == schema.fields


@given(value=_scalar)
@settings(max_examples=100, deadline=None)
def test_scalar_round_trip(value):
    assert codec.decode_value(_through_json(codec.encode_value(value))) == value


@given(checksums=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=60))
@settings(max_examples=100, deadline=None)
def test_chunk_crcs_round_trip_at_four_bytes_each(checksums):
    blob = codec.encode_crcs(checksums)
    assert len(blob) == 4 * len(checksums)
    assert codec.decode_crcs(blob) == tuple(checksums)
