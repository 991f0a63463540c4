"""An upload does each thing once — and stores, replica for replica, what it always stored.

The HAIL client parses, pivots and measures a block once and every datanode only reorders it
(``HailBlock.build(..., None)`` then ``resorted`` per pipeline position).  The *differential*
half holds every stored replica and every reported number against values computed the row-wise
way, from independently built blocks; the *counts* half holds the work itself as call counts, the
way ``test_size_accounting.py`` does — a count cannot pass on a fast machine by accident.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.baselines import HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy, TransferLedger
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator, WebLogGenerator
from repro.engine.lifecycle import evict_under_pressure
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.hail.scheduler import check_dir_rep_consistency
from repro.hail.system import HailSystem
from repro.hail.upload import HailUploadPipeline
from repro.hdfs import DataFile, HdfsClient, StandardUploadPipeline
from repro.hdfs.checksum import checksum_file_size, chunk_checksums
from repro.layouts.pax import PaxBlock
from repro.query.predicate import Operator, Predicate, Query
from repro.query.schema import BadRecordError, Field, FieldType, Schema

_BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")
_CLIENT = 0
_STORM = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
_REVENUE_QUERY = Query(
    name="revenue",
    predicate=Predicate.comparison("adRevenue", Operator.LT, 100.0),
    projection=None,
    description="",
)


def _rows(count: int, seed: int = 13) -> list[tuple]:
    return UserVisitsGenerator(seed=seed, probe_ip_rate=1 / 100).generate(count)


def _hail(config: HailConfig, nodes: int = 6) -> HailSystem:
    cost = CostModel(CostParameters(enable_variance=False))
    return HailSystem(Cluster.homogeneous(nodes, seed=2), config=config, cost=cost)


def _row_wise(schema: Schema, lines: list[str]) -> tuple[list[tuple], list[str]]:
    """One block's raw lines parsed line by line: its records and its bad lines."""
    records, bad_lines = [], []
    for line in lines:
        try:
            records.append(schema.parse_line(line))
        except BadRecordError:
            bad_lines.append(line)
    return records, bad_lines


def _assert_upload_is_what_the_row_wise_path_stored(
    system: HailSystem, path: str, report, uploaded: list[tuple[list[tuple], list[str]]]
) -> None:
    """Every replica, every reported size and the simulated upload time, recomputed row-wise.

    ``uploaded`` is each block's records and bad lines as the client cut them.  The ledger is
    replayed charge for charge from ``Schema.text_size`` / ``binary_size`` /
    ``string_byte_fraction`` and from blocks built independently with ``HailBlock.build``, so a
    size that differs by one byte anywhere moves ``upload_s``.
    """
    hdfs, config, cost = system.hdfs, system.config, system.cost
    namenode = hdfs.namenode
    pipeline = system._upload_pipeline()
    ledger = TransferLedger(system.cluster, cost)
    source_text_bytes = 0
    block_ids = namenode.file_blocks(path)
    assert len(block_ids) == len(uploaded)
    for block_id, (records, bad_lines) in zip(block_ids, uploaded):
        logical = namenode.logical_block(block_id)
        schema = logical.schema
        assert (logical.num_records, logical.bad_lines) == (len(records), bad_lines)
        text_bytes = sum(schema.text_size(record) for record in records) + sum(
            len(line.encode("utf-8")) + 1 for line in bad_lines
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
                bad_lines=bad_lines,
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
            assert stored.bad_lines == expected.bad_lines == tuple(bad_lines)
            assert stored.size_bytes() == expected.size_bytes()
            assert stored.data_size_bytes() == pax_bytes
            assert stored.replica_info(datanode_id) == expected.replica_info(datanode_id)
            assert namenode.replica_info(block_id, datanode_id) == expected.replica_info(datanode_id)
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
    rows = _rows(230)
    report = system.upload(
        "/uv", rows, USERVISITS_SCHEMA, rows_per_block=100, client_nodes=[_CLIENT]
    )
    assert report.num_blocks == 3  # 100 + 100 + 30: fewer and more rows than the 64-row sample
    uploaded = [(rows[start : start + 100], []) for start in range(0, 230, 100)]
    _assert_upload_is_what_the_row_wise_path_stored(system, "/uv", report, uploaded)
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
    uploaded = [
        _row_wise(generator.schema, lines[start : start + 60]) for start in range(0, 150, 60)
    ]
    assert sum(len(bad_lines) for _, bad_lines in uploaded) > 0
    _assert_upload_is_what_the_row_wise_path_stored(system, "/logs", report, uploaded)


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
        (block_id,) = hdfs.namenode.file_blocks(datafile.path)
        logical = hdfs.namenode.logical_block(block_id)
        assert logical.num_records == 2 and logical.bad_lines == ["broken"]


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


def test_a_hail_upload_formats_each_column_once(monkeypatch):
    # Text bytes and the 64-row string share come from one measure per column.  A STRING
    # column's text is its carried binary size less one terminator per row, and a DATE column
    # of exact dates is 10 bytes a value, so neither formats a value; every other column is
    # formatted once, through the formatter bound for the whole column.
    system = _hail(HailConfig.for_attributes(_BOB_INDEXES), nodes=4)
    formatted = dict.fromkeys(FieldType, 0)
    for ftype in FieldType:
        for name in ("format_value", "_exact_format"):
            formatter = getattr(ftype, name)
            if formatter is None:  # no bound method: INT/BIGINT, and STRING (its own tokens)
                continue

            def counting(value, formatter=formatter, ftype=ftype):
                formatted[ftype] += 1
                return formatter(value)

            monkeypatch.setattr(ftype, name, counting)
    rows = _rows(400)
    report = system.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=100)
    assert report.num_blocks == 4
    per_type = dict.fromkeys(FieldType, 0)
    for field in USERVISITS_SCHEMA.fields:
        if field.ftype not in (FieldType.STRING, FieldType.DATE):
            per_type[field.ftype] += len(rows)
    assert formatted == per_type  # adRevenue and duration, each value once


def test_a_hail_upload_sums_the_column_sizes_once_per_row_set(monkeypatch):
    # The client's block is measured by one sum over its columns, which every replica sorted
    # from it shares (the text measure reads the carried sizes too).
    system = _hail(HailConfig.for_attributes(_BOB_INDEXES), nodes=4)
    column_reads = _counted(monkeypatch, PaxBlock, "_column_size_at")
    report = system.upload("/uv", _rows(400), USERVISITS_SCHEMA, rows_per_block=100)
    assert report.num_blocks == 4
    assert column_reads[0] == report.num_blocks * len(USERVISITS_SCHEMA.fields)


def test_a_hail_upload_sums_each_payload_size_once(monkeypatch):
    # Every term of a replica's size is fixed at construction: summed on its first request.
    system = _hail(HailConfig.for_attributes(_BOB_INDEXES), nodes=4)
    data_sizes = _counted(monkeypatch, HailBlock, "data_size_bytes")
    report = system.upload("/uv", _rows(400), USERVISITS_SCHEMA, rows_per_block=100)
    assert report.num_blocks == 4
    # Per block, the client's PAX bytes, then one sum per replica's payload.
    assert data_sizes[0] == report.num_blocks * (1 + system.config.replication)


def _count_chunk_checksums(monkeypatch) -> list[int]:
    """Count ``chunk_checksums`` calls through every ``repro`` module that binds it."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return chunk_checksums(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "chunk_checksums", None)
        if name.startswith("repro") and bound is chunk_checksums:
            monkeypatch.setattr(module, "chunk_checksums", counting)
    return calls


def test_an_unjournaled_deployment_never_encodes_or_checksums_a_payload(monkeypatch):
    # Chunk CRCs come into being only where the journal writes a payload; the cost model
    # charges every replica's checksum pass either way.
    config = (
        HailConfig.for_attributes(["sourceIP"], functional_partition_size=4)
        .with_adaptive(True, offer_rate=1.0)
        .with_placement(scheduling=True, balancer=True, rebuilds_per_job=4)
    )
    system = _hail(config, nodes=4)
    encodes = _counted(monkeypatch, PaxBlock, "to_bytes")
    crcs = _count_chunk_checksums(monkeypatch)
    system.upload("/uv", _rows(400), USERVISITS_SCHEMA, rows_per_block=100)
    for _ in range(2):
        system.run_query(_REVENUE_QUERY, "/uv")
    assert system.adaptive_replica_count("/uv") > 0
    evicted = evict_under_pressure(system.hdfs, _STORM)
    assert any(record.kind == "downgrade" for record in evicted)
    system.config = dataclasses.replace(system.config, adaptive_offer_rate=0.0)
    system.cluster.kill_node(1)
    for _ in range(4):
        system.run_query(_REVENUE_QUERY, "/uv")
    rebuilds = [
        action
        for report in system.lifecycle.reports
        for action in report.actions
        if action.kind == "rebuild"
    ]
    assert rebuilds
    assert (encodes[0], crcs[0]) == (0, 0)


def test_a_stock_upload_formats_each_record_once(monkeypatch):
    # A block's lines are formatted by the column: one ``format_records`` call per block.
    system = HadoopSystem(Cluster.homogeneous(4, seed=2))
    formatted = _counted(monkeypatch, Schema, "format_record")
    blocks_formatted = _counted(monkeypatch, Schema, "format_records")
    value_formats = _counted(monkeypatch, Field, "format")
    rows = _rows(400)
    system.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=100)
    assert blocks_formatted[0] == len(system.hdfs.namenode.file_blocks("/uv")) == 4
    assert formatted[0] == 0
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
