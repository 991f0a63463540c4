"""Size accounting visits a block's values once: the guard is a call count, not a stopwatch.

``PaxBlock`` carries one per-column size table, filled from the block's own values at most
once per row set and shared with every reorder.  These tests count ``Field.binary_size`` calls
(the only way a string value is ever measured) around the operations that used to re-measure
every immutable block on every query and every upload.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.datagen.uservisits import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.hail.hail_block import HailBlock
from repro.layouts import Field, PaxBlock
from repro.workloads.bob import bob_logical_queries

_BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")


@pytest.fixture
def binary_size_calls(monkeypatch):
    """A one-element list counting every ``Field.binary_size`` call made while it is live."""
    calls = [0]
    original = Field.binary_size

    def counting(self, value):
        calls[0] += 1
        return original(self, value)

    monkeypatch.setattr(Field, "binary_size", counting)
    return calls


def _rows(count: int, seed: int = 11) -> list[tuple]:
    return UserVisitsGenerator(seed=seed, probe_ip_rate=1 / 100).generate(count)


def _hail_session(rows, path="/uv") -> Session:
    session = Session.deploy(nodes=4, index_attributes=_BOB_INDEXES)
    session.upload(path, rows, USERVISITS_SCHEMA, rows_per_block=100)
    return session


def test_a_warm_indexed_query_measures_no_value(binary_size_calls):
    session = _hail_session(_rows(800))
    bob_q1 = bob_logical_queries()[0]
    dataset = session.dataset("/uv").where(bob_q1.where).select(*bob_q1.select)
    first = dataset.collect()
    before = binary_size_calls[0]
    second = dataset.collect()
    assert binary_size_calls[0] == before
    assert second.runtime_s == first.runtime_s and second.records == first.records


def test_total_stored_bytes_is_a_lookup_and_agrees_with_a_re_encode(binary_size_calls):
    hdfs = _hail_session(_rows(600)).system().hdfs
    first = hdfs.total_stored_bytes()
    before = binary_size_calls[0]
    assert hdfs.total_stored_bytes() == first
    assert binary_size_calls[0] == before
    # From scratch: the encoded minipages plus every non-data part of each replica.
    from_scratch = 0
    for datanode in hdfs.datanodes.values():
        for block_id in datanode.block_ids():
            payload = datanode.replica(block_id).payload
            from_scratch += (
                payload.size_bytes() - payload.data_size_bytes() + len(payload.pax.to_bytes())
            )
    assert first == from_scratch


def test_upload_cost_does_not_grow_with_stored_data(binary_size_calls):
    session = Session.deploy(nodes=4, index_attributes=_BOB_INDEXES)
    rows = _rows(400)
    per_upload = []
    for number in range(4):
        before = binary_size_calls[0]
        session.upload(f"/part{number}", rows, USERVISITS_SCHEMA, rows_per_block=100)
        per_upload.append(binary_size_calls[0] - before)
    assert per_upload[3] <= per_upload[0]


def test_reorders_and_resorts_inherit_the_measurement(binary_size_calls):
    rows = _rows(120)
    pax = PaxBlock.from_records(USERVISITS_SCHEMA, rows)
    expected = pax.size_bytes()
    assert binary_size_calls[0] > 0  # the one measurement of this row set
    before = binary_size_calls[0]
    assert pax.reorder(list(reversed(range(len(rows))))).size_bytes() == expected
    assert binary_size_calls[0] == before

    block = HailBlock.build(USERVISITS_SCHEMA, rows, "visitDate", partition_size=16)
    for attribute in ("sourceIP", None):
        resorted = block.resorted(attribute)  # construction walks the offsets: order-dependent
        before = binary_size_calls[0]
        assert resorted.data_size_bytes() == expected
        assert resorted.size_bytes() == resorted.replica_info(0).block_size_bytes
        assert binary_size_calls[0] == before
    # The offsets walk is the only per-replica visit: one call per variable-size value.
    string_columns = sum(not f.ftype.is_fixed for f in USERVISITS_SCHEMA.fields)
    before = binary_size_calls[0]
    block.resorted("adRevenue").size_bytes()
    assert binary_size_calls[0] - before == string_columns * len(rows)
