"""An upload does each thing once — and stores, replica for replica, what it always stored.

The HAIL client parses, pivots and measures a block once and every datanode only reorders it
(``HailBlock.build(..., None)`` then ``resorted`` per pipeline position).  The *differential*
half holds every stored replica and every reported number against values computed the row-wise
way, from independently built blocks; the *counts* half holds the work itself as call counts, the
way ``test_size_accounting.py`` does — a count cannot pass on a fast machine by accident.
"""

from __future__ import annotations

import pytest

from repro.baselines import HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters, TransferLedger
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator, WebLogGenerator
from repro.hail import HailConfig, HailSystem
from repro.hail.hail_block import HailBlock
from repro.hail.scheduler import check_dir_rep_consistency
from repro.hail.upload import HailUploadPipeline
from repro.hdfs import DataFile, HdfsClient, StandardUploadPipeline
from repro.hdfs.checksum import checksum_file_size, chunk_checksums
from repro.layouts import FieldType, PaxBlock, Schema
from repro.layouts.schema import Field

_BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")
_CLIENT = 0


def _rows(count: int, seed: int = 13) -> list[tuple]:
    return UserVisitsGenerator(seed=seed, probe_ip_rate=1 / 100).generate(count)


def _hail(config: HailConfig, nodes: int = 6) -> HailSystem:
    cost = CostModel(CostParameters(enable_variance=False))
    return HailSystem(Cluster.homogeneous(nodes, seed=2), config=config, cost=cost)


def _assert_upload_is_what_the_row_wise_path_stored(system: HailSystem, path: str, report) -> None:
    """Every replica, every reported size and the simulated upload time, recomputed row-wise.

    The ledger is replayed charge for charge from ``Schema.text_size`` / ``binary_size`` /
    ``string_byte_fraction`` and from blocks built independently with ``HailBlock.build``, so a
    size that differs by one byte anywhere moves ``upload_s``.
    """
    hdfs, config, cost = system.hdfs, system.config, system.cost
    namenode = hdfs.namenode
    pipeline = system._upload_pipeline()
    ledger = TransferLedger(system.cluster, cost)
    source_text_bytes = 0
    for block_id in namenode.file_blocks(path):
        logical = namenode.logical_block(block_id)
        schema, records = logical.schema, logical.records
        text_bytes = sum(schema.text_size(record) for record in records) + sum(
            len(line.encode("utf-8")) + 1 for line in logical.bad_lines
        )
        pax_bytes = sum(schema.binary_size(record) for record in records)
        assert logical.text_size_bytes == text_bytes
        source_text_bytes += text_bytes
        pipeline._charge_client(
            _CLIENT, text_bytes, pax_bytes, schema.string_byte_fraction(records[:64]), ledger
        )
        datanodes = namenode.block_datanodes(block_id)
        assert len(datanodes) == config.replication
        previous = _CLIENT
        for position, datanode_id in enumerate(datanodes):
            attribute = config.attribute_for_replica(position)
            expected = HailBlock.build(
                schema,
                records,
                attribute,
                partition_size=config.effective_functional_partition_size,
                bad_lines=logical.bad_lines,
                logical_partition_size=config.partition_size,
            )
            expected.pax_layout = config.convert_to_pax
            replica = hdfs.read_replica(block_id, datanode_id)
            stored = replica.payload
            assert stored.sort_attribute == attribute == replica.indexed_attribute
            assert stored.pax.columns == expected.pax.columns
            assert (stored.index is None) == (attribute is None)
            if attribute is not None:
                assert stored.index.partition_keys == expected.index.partition_keys
                assert stored.index.describe() == expected.index.describe()
            assert stored.variable_offsets == expected.variable_offsets
            assert stored.bad_lines == expected.bad_lines == logical.bad_lines
            assert stored.size_bytes() == expected.size_bytes()
            assert stored.data_size_bytes() == pax_bytes
            assert stored.replica_info(datanode_id) == expected.replica_info(datanode_id)
            assert namenode.replica_info(block_id, datanode_id) == expected.replica_info(datanode_id)
            assert replica.checksums == tuple(chunk_checksums(expected.pax.to_bytes()))
            ledger.record_transfer(previous, datanode_id, pax_bytes + checksum_file_size(pax_bytes))
            pipeline._charge_datanode(datanode_id, expected, pax_bytes, ledger)
            previous = datanode_id
        ledger.record_fixed(_CLIENT, cost.network.round_trip() * len(datanodes))
        ledger.record_fixed(_CLIENT, cost.block_setup())
    assert report.source_text_bytes == source_text_bytes
    assert report.upload_s == ledger.makespan()
    assert check_dir_rep_consistency(hdfs, path) == []


# --------------------------------------------------------------------------- differential
@pytest.mark.parametrize(
    "config",
    [
        HailConfig(index_attributes=(), replication=3),
        HailConfig.for_attributes(["sourceIP"], functional_partition_size=4),
        HailConfig.for_attributes(_BOB_INDEXES, functional_partition_size=4),
        # More replicas than attributes: positions 3 and 4 keep the client's row order.
        HailConfig.for_attributes(_BOB_INDEXES, replication=5, partition_size=16),
        HailConfig.for_attributes(_BOB_INDEXES, convert_to_pax=False),
    ],
    ids=["0-indexes", "1-index", "3-indexes", "replication-5", "no-pax-conversion"],
)
def test_stored_replicas_equal_independently_built_blocks(config):
    system = _hail(config)
    report = system.upload(
        "/uv", _rows(230), USERVISITS_SCHEMA, rows_per_block=100, client_nodes=[_CLIENT]
    )
    assert report.num_blocks == 3  # 100 + 100 + 30: fewer and more rows than the 64-row sample
    _assert_upload_is_what_the_row_wise_path_stored(system, "/uv", report)
    for block_id in system.hdfs.namenode.file_blocks("/uv"):
        replicas = [
            system.hdfs.read_replica(block_id, datanode_id).payload
            for datanode_id in system.hdfs.namenode.block_datanodes(block_id)
        ]
        assert all(replica.pax_layout == config.convert_to_pax for replica in replicas)
        assert len({id(replica) for replica in replicas}) == len(replicas)  # own payload each
        # Unsorted positions changed no value, so they keep the client's minipages.
        unsorted = [replica.pax for replica in replicas if replica.sort_attribute is None]
        assert all(pax is unsorted[0] for pax in unsorted)


def test_raw_lines_upload_with_bad_records_is_what_the_row_wise_path_stored():
    generator = WebLogGenerator(seed=4, bad_record_rate=0.2)
    lines = generator.generate_lines(150)
    system = _hail(HailConfig.for_attributes(["statusCode", "clientIP"], functional_partition_size=2))
    report = system.upload(
        "/logs", [], generator.schema, rows_per_block=60, raw_lines=lines, client_nodes=[_CLIENT]
    )
    logicals = system.hdfs.file_blocks("/logs")
    assert sum(len(logical.bad_lines) for logical in logicals) > 0
    assert sum(len(logical.bad_lines) + logical.num_records for logical in logicals) == 150
    _assert_upload_is_what_the_row_wise_path_stored(system, "/logs", report)


def test_block_results_carry_the_row_wise_sizes(hdfs, cost_model):
    pipeline = HailUploadPipeline(hdfs, cost_model, HailConfig.for_attributes(_BOB_INDEXES))
    rows = _rows(170)
    client = HdfsClient(hdfs, cost_model, pipeline, client_node=_CLIENT)
    report = client.upload(DataFile("/uv", USERVISITS_SCHEMA, rows), rows_per_block=80)
    assert report.source_text_bytes == sum(map(USERVISITS_SCHEMA.text_size, rows))
    assert report.stored_bytes == hdfs.total_stored_bytes()
    for result, start in zip(report.block_results, range(0, 170, 80)):
        block_rows = rows[start : start + 80]
        assert result.text_bytes == sum(map(USERVISITS_SCHEMA.text_size, block_rows))
        assert result.pax_bytes == sum(map(USERVISITS_SCHEMA.binary_size, block_rows))
    assert check_dir_rep_consistency(hdfs, "/uv") == []


def test_raw_lines_source_bytes_count_the_raw_lines_not_the_reformatted_text(hdfs, cost_model):
    # "1.50" parses to 1.5 and re-formats as "1.5": the source is what the client read.
    schema = Schema.of(("id", FieldType.INT), ("x", FieldType.DOUBLE), name="raw")
    lines = ["1|1.50", "2|2.000", "broken"]
    pipelines = (
        StandardUploadPipeline(hdfs, cost_model),
        HailUploadPipeline(hdfs, cost_model, HailConfig(index_attributes=(), replication=3)),
    )
    for number, pipeline in enumerate(pipelines):
        client = HdfsClient(hdfs, cost_model, pipeline, client_node=_CLIENT)
        datafile = DataFile(f"/raw{number}", schema, [], raw_lines=lines)
        report = client.upload(datafile, rows_per_block=10)
        assert report.source_text_bytes == sum(len(line.encode("utf-8")) + 1 for line in lines)
        logical = hdfs.file_blocks(datafile.path)[0]
        assert logical.records == [(1, 1.5), (2, 2.0)] and logical.bad_lines == ["broken"]


# --------------------------------------------------------------------------- counts
def _counted(monkeypatch, owner, name) -> list[int]:
    """Wrap ``owner.name`` (a method or classmethod) to count its calls while the test runs."""
    calls = [0]
    raw = owner.__dict__[name]
    function = raw.__func__ if isinstance(raw, classmethod) else raw

    def counting(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, classmethod(counting) if isinstance(raw, classmethod) else counting)
    return calls


def test_a_hail_block_is_pivoted_once_and_no_value_is_measured_row_wise(monkeypatch):
    system = _hail(HailConfig.for_attributes(_BOB_INDEXES), nodes=4)
    pivots = _counted(monkeypatch, PaxBlock, "from_records")
    formats = _counted(monkeypatch, Field, "format")
    binary_sizes = _counted(monkeypatch, Field, "binary_size")
    report = system.upload("/uv", _rows(400), USERVISITS_SCHEMA, rows_per_block=100)
    assert report.num_blocks == 4
    assert pivots[0] == report.num_blocks  # the client's; three replicas each reorder it
    assert formats[0] == 0 and binary_sizes[0] == 0


def test_a_stock_upload_formats_each_record_once(monkeypatch):
    system = HadoopSystem(Cluster.homogeneous(4, seed=2))
    formatted = _counted(monkeypatch, Schema, "format_record")
    value_formats = _counted(monkeypatch, Field, "format")
    rows = _rows(400)
    system.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=100)
    assert formatted[0] == len(rows)
    assert value_formats[0] == 0


def test_reading_the_stored_total_does_not_grow_with_stored_replicas(monkeypatch):
    system = _hail(HailConfig.for_attributes(_BOB_INDEXES), nodes=4)
    size_calls = _counted(monkeypatch, HailBlock, "size_bytes")
    rows = _rows(400)
    per_upload = []
    for number in range(4):
        before = size_calls[0]
        system.upload(f"/part{number}", rows, USERVISITS_SCHEMA, rows_per_block=100)
        per_upload.append(size_calls[0] - before)
    assert per_upload[3] <= per_upload[0]
