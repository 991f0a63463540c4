"""Tests for the stock HDFS upload pipeline, client and filesystem facade."""

import pytest

from repro.cluster import TransferLedger
from repro.hdfs import DataFile, Hdfs, HdfsClient, StandardUploadPipeline, TextBlockPayload
from repro.hdfs.checksum import checksum_file_size, chunk_checksums
from repro.hdfs.chunk import PACKET_DATA_SIZE, num_packets
from repro.hdfs.errors import ReplicaNotFoundError


@pytest.fixture
def pipeline(hdfs, cost_model):
    return StandardUploadPipeline(hdfs, cost_model)


@pytest.fixture
def client(hdfs, cost_model, pipeline):
    return HdfsClient(hdfs, cost_model, pipeline, client_node=0)


def _datafile(simple_schema, simple_records, path="/data/simple"):
    return DataFile(path=path, schema=simple_schema, records=list(simple_records))


def test_upload_block_creates_identical_replicas(hdfs, cost_model, pipeline, simple_schema, simple_records):
    hdfs.namenode.create_file("/f")
    ledger = TransferLedger(hdfs.cluster, cost_model)
    result = pipeline.upload_block("/f", simple_records[:20], simple_schema, 0, ledger)
    assert result.replication == 3
    payloads = [hdfs.read_replica(result.block_id, dn).payload for dn in result.pipeline]
    assert all(isinstance(p, TextBlockPayload) for p in payloads)
    assert len({id(p) for p in payloads}) >= 1
    byte_forms = {p.to_bytes() for p in payloads}
    assert len(byte_forms) == 1  # byte-identical replicas


def test_upload_block_writes_a_checksum_file_beside_every_replica(
    hdfs, cost_model, pipeline, simple_schema, simple_records
):
    hdfs.namenode.create_file("/f")
    ledger = TransferLedger(hdfs.cluster, cost_model)
    result = pipeline.upload_block("/f", simple_records[:10], simple_schema, 0, ledger)
    payload = hdfs.read_replica(result.block_id, result.pipeline[-1]).payload.to_bytes()
    # Data file plus 4 bytes per 512-byte chunk, on every node of the chain.
    expected = len(payload) + 4 * len(chunk_checksums(payload))
    assert [ledger.usage(dn).disk_write_bytes for dn in result.pipeline] == [expected] * 3


def test_upload_result_counts_the_packets_and_chunks_of_its_payload(
    hdfs, cost_model, pipeline, simple_schema
):
    records = [(i, f"name-{i:06d}-" + "x" * 40, float(i)) for i in range(3000)]
    hdfs.namenode.create_file("/f")
    ledger = TransferLedger(hdfs.cluster, cost_model)
    result = pipeline.upload_block("/f", records, simple_schema, 0, ledger)
    replica = hdfs.read_replica(result.block_id, result.pipeline[0])
    payload = replica.payload.to_bytes()
    assert result.payload_bytes == len(payload) > 2 * PACKET_DATA_SIZE
    assert result.num_packets == num_packets(len(payload)) == -(-len(payload) // PACKET_DATA_SIZE)
    assert 4 * len(chunk_checksums(payload)) == checksum_file_size(len(payload))


def test_upload_charges_every_pipeline_stage(hdfs, cost_model, pipeline, simple_schema, simple_records):
    hdfs.namenode.create_file("/f")
    ledger = TransferLedger(hdfs.cluster, cost_model)
    result = pipeline.upload_block("/f", simple_records, simple_schema, 0, ledger)
    for datanode_id in result.pipeline:
        assert ledger.node_time(datanode_id) > 0.0
        usage = ledger.usage(datanode_id)
        assert usage.disk_write_bytes > usage.disk_read_bytes


def test_client_upload_partitions_into_blocks(client, hdfs, simple_schema, simple_records):
    report = client.upload(_datafile(simple_schema, simple_records), rows_per_block=25)
    assert report.num_blocks == 3  # 60 rows / 25
    assert report.duration_s is not None and report.duration_s > 0
    assert report.replication == 3
    assert report.stored_bytes / report.source_text_bytes == pytest.approx(3.0, rel=0.01)
    block_ids = hdfs.namenode.file_blocks("/data/simple")
    assert [hdfs.namenode.logical_block(b).num_records for b in block_ids] == [25, 25, 10]
    stored = [line for b in block_ids for line in hdfs.any_replica(b).payload.lines]
    assert stored == [simple_schema.format_record(record) for record in simple_records]


def test_client_upload_with_external_ledger_reports_no_duration(
    hdfs, cost_model, pipeline, simple_schema, simple_records
):
    client = HdfsClient(hdfs, cost_model, pipeline, client_node=1)
    ledger = TransferLedger(hdfs.cluster, cost_model)
    report = client.upload(_datafile(simple_schema, simple_records), rows_per_block=30, ledger=ledger)
    assert report.duration_s is None
    assert ledger.makespan() > 0


def test_datafile_partitioning_never_splits_rows(simple_schema, simple_records):
    datafile = _datafile(simple_schema, simple_records)
    parts = datafile.partition_records(7)
    assert sum(len(p) for p in parts) == len(simple_records)
    assert all(len(p) <= 7 for p in parts)
    with pytest.raises(ValueError):
        datafile.partition_records(0)


def test_raw_lines_upload_stores_the_lines_and_parses_the_records(
    client, hdfs, simple_schema, simple_records
):
    lines = [simple_schema.format_record(record) for record in simple_records]
    datafile = DataFile("/data/raw", simple_schema, [], raw_lines=lines)
    client.upload(datafile, rows_per_block=25)
    block_ids = hdfs.namenode.file_blocks("/data/raw")
    logicals = [hdfs.namenode.logical_block(block_id) for block_id in block_ids]
    assert [logical.num_records for logical in logicals] == [25, 25, 10]
    assert all(not logical.bad_lines for logical in logicals)
    stored = [line for block_id in block_ids for line in hdfs.any_replica(block_id).payload.lines]
    assert stored == lines


def test_hdfs_facade_replica_access(client, hdfs, simple_schema, simple_records):
    client.upload(_datafile(simple_schema, simple_records), rows_per_block=20)
    block_id = hdfs.namenode.file_blocks("/data/simple")[0]
    hosts = hdfs.namenode.block_datanodes(block_id)
    replica = hdfs.any_replica(block_id)
    assert (replica.block_id, replica.datanode_id) == (block_id, hosts[0])
    with pytest.raises(ReplicaNotFoundError):
        hdfs.read_replica(block_id, [n for n in range(4) if n not in hosts][0])


def test_hdfs_facade_loses_replicas_when_all_hosts_die(client, hdfs, simple_schema, simple_records):
    client.upload(_datafile(simple_schema, simple_records), rows_per_block=60)
    block_id = hdfs.namenode.file_blocks("/data/simple")[0]
    for datanode_id in hdfs.namenode.block_datanodes(block_id):
        hdfs.cluster.kill_node(datanode_id)
    with pytest.raises(ReplicaNotFoundError):
        hdfs.any_replica(block_id)
    hdfs.cluster.revive_all()


def test_total_stored_bytes_counts_all_replicas(client, hdfs, simple_schema, simple_records):
    before = hdfs.total_stored_bytes()
    report = client.upload(_datafile(simple_schema, simple_records), rows_per_block=20)
    assert hdfs.total_stored_bytes() - before == report.stored_bytes
    assert hdfs.describe()["stored_bytes"] >= report.stored_bytes
