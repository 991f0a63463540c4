"""Size accounting visits a block's values once: the guard is a call count, not a stopwatch.

``PaxBlock`` carries one per-column size table, filled from the block's own values at most
once per row set and shared with every reorder.  These tests count measurements — column walks
(``serialization.variable_offsets_and_size`` calls, the only way a string column is measured
now) and per-value ``Field.binary_size`` calls (the public row-wise reference, which nothing on
these paths may go back to) — around the operations that used to re-measure every immutable
block on every query and every upload.  A ``HailBlock``'s variable-size offsets are walked only
when read: its size counts them.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.datagen.uservisits import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.hail import hail_block
from repro.hail.hail_block import HailBlock
from repro.layouts import Field, PaxBlock, serialization
from repro.workloads.bob import bob_logical_queries

_BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")


@pytest.fixture
def measurements(monkeypatch):
    """A one-element list counting, while it is live, every column walk and every per-value
    ``Field.binary_size`` call."""
    calls = [0]
    walk, by_value = serialization.variable_offsets_and_size, Field.binary_size

    def counting_walk(field, values, partition_size):
        calls[0] += 1
        return walk(field, values, partition_size)

    def counting_by_value(self, value):
        calls[0] += 1
        return by_value(self, value)

    monkeypatch.setattr(serialization, "variable_offsets_and_size", counting_walk)
    monkeypatch.setattr(Field, "binary_size", counting_by_value)
    return calls


def _rows(count: int, seed: int = 11) -> list[tuple]:
    return UserVisitsGenerator(seed=seed, probe_ip_rate=1 / 100).generate(count)


def _hail_session(rows, path="/uv") -> Session:
    session = Session.deploy(nodes=4, index_attributes=_BOB_INDEXES)
    session.upload(path, rows, USERVISITS_SCHEMA, rows_per_block=100)
    return session


def test_a_warm_indexed_query_measures_no_value(measurements):
    session = _hail_session(_rows(800))
    bob_q1 = bob_logical_queries()[0]
    dataset = session.dataset("/uv").where(bob_q1.where).select(*bob_q1.select)
    first = dataset.collect()
    before = measurements[0]
    second = dataset.collect()
    assert measurements[0] == before
    assert second.runtime_s == first.runtime_s and second.records == first.records


def test_total_stored_bytes_is_a_lookup_and_agrees_with_a_re_encode(measurements):
    hdfs = _hail_session(_rows(600)).system().hdfs
    first = hdfs.total_stored_bytes()
    before = measurements[0]
    assert hdfs.total_stored_bytes() == first
    assert measurements[0] == before
    # From scratch: the encoded minipages plus every non-data part of each replica.
    from_scratch = 0
    for datanode in hdfs.datanodes.values():
        for block_id in datanode.block_ids():
            payload = datanode.replica(block_id).payload
            from_scratch += (
                payload.size_bytes() - payload.data_size_bytes() + len(payload.pax.to_bytes())
            )
    assert first == from_scratch


def test_upload_cost_does_not_grow_with_stored_data(measurements):
    session = Session.deploy(nodes=4, index_attributes=_BOB_INDEXES)
    rows = _rows(400)
    per_upload = []
    for number in range(4):
        before = measurements[0]
        session.upload(f"/part{number}", rows, USERVISITS_SCHEMA, rows_per_block=100)
        per_upload.append(measurements[0] - before)
    assert per_upload[3] <= per_upload[0]


def test_reorders_and_resorts_inherit_the_measurement(measurements):
    rows = _rows(120)
    pax = PaxBlock.from_records(USERVISITS_SCHEMA, rows)
    expected = pax.size_bytes()
    assert measurements[0] > 0  # the one measurement of this row set
    before = measurements[0]
    assert pax.reorder(list(reversed(range(len(rows))))).size_bytes() == expected
    assert measurements[0] == before

    block = HailBlock.build(USERVISITS_SCHEMA, rows, "visitDate", partition_size=16)
    for attribute in ("sourceIP", None):
        resorted = block.resorted(attribute)  # shares the table ``build`` filled
        before = measurements[0]
        assert resorted.data_size_bytes() == expected
        assert resorted.size_bytes() == resorted.replica_info(0).block_size_bytes
        assert measurements[0] == before
    # A replica's size counts its offsets instead of walking them: no column walk and no
    # per-value call per replica.
    before = measurements[0]
    block.resorted("adRevenue").size_bytes()
    assert measurements[0] - before == 0


_STRING_COLUMNS = [f for f in USERVISITS_SCHEMA.fields if not f.ftype.is_fixed]


def test_constructing_a_hail_block_walks_no_column(measurements):
    rows = _rows(120)
    pax = PaxBlock.from_records(USERVISITS_SCHEMA, rows)  # unmeasured
    before = measurements[0]
    block = HailBlock(pax, None, None, partition_size=16)
    replicas = [block.resorted(attribute) for attribute in (*_BOB_INDEXES, None)]
    assert measurements[0] == before
    # ``build`` is the client's conversion: the row set's one measurement, then no more.
    built = HailBlock.build(USERVISITS_SCHEMA, rows, None, partition_size=16)
    assert measurements[0] - before == len(_STRING_COLUMNS)
    before = measurements[0]
    for replica in [built.resorted(attribute) for attribute in _BOB_INDEXES] + replicas:
        replica.replica_info(0)
    assert measurements[0] - before == len(_STRING_COLUMNS)  # ``pax``'s own, once


@pytest.mark.parametrize("partition_size", [1024, 16], ids=["one-partition", "16-row-partitions"])
@pytest.mark.parametrize("attribute", [None, "sourceIP", "adRevenue"])
def test_offsets_built_on_read_are_the_eager_offsets(measurements, partition_size, attribute):
    block = HailBlock.build(USERVISITS_SCHEMA, _rows(120), attribute, partition_size=partition_size)
    expected_partitions = -(-120 // partition_size)
    size = block.size_bytes()
    before = measurements[0]
    offsets = block.variable_offsets
    assert measurements[0] - before == len(_STRING_COLUMNS)  # one walk per string column
    assert block.variable_offsets is offsets and measurements[0] - before == len(_STRING_COLUMNS)
    assert list(offsets) == [f.name for f in _STRING_COLUMNS]
    for f in _STRING_COLUMNS:
        assert offsets[f.name] == serialization.variable_offsets_and_size(
            f, block.pax.column(f.name), partition_size
        )[0]
        assert len(offsets[f.name]) == expected_partitions
    # The counted size is the size the eager offsets gave.
    assert size == block.size_bytes() == (
        hail_block._BLOCK_METADATA_BYTES
        + hail_block._INDEX_METADATA_BYTES
        + block.data_size_bytes()
        + block.index_size_bytes()
        + block.bad_records_size_bytes()
        + 4 * sum(len(column_offsets) for column_offsets in offsets.values())
    )
