"""Tests for the HAIL upload pipeline, the namenode replica directory and the scheduler helpers."""

import pytest

from repro.cluster import Cluster, CostModel, CostParameters, TransferLedger
from repro.datagen import USERVISITS_SCHEMA, WebLogGenerator
from repro.engine.access_path import AccessPath
from repro.engine.planner import PhysicalPlanner
from repro.hail import HailConfig
from repro.hail.annotation import HailQuery
from repro.hail.hail_block import HailBlock
from repro.hail.predicate import Predicate
from repro.hail.scheduler import index_coverage, replica_distribution
from repro.hail.upload import HailUploadPipeline
from repro.hdfs import Hdfs


@pytest.fixture
def hail_setup():
    cluster = Cluster.homogeneous(4, seed=2)
    cost = CostModel(CostParameters(enable_variance=False))
    hdfs = Hdfs(cluster, cost)
    config = HailConfig.for_attributes(
        ["visitDate", "sourceIP", "adRevenue"], functional_partition_size=4
    )
    pipeline = HailUploadPipeline(hdfs, cost, config)
    hdfs.namenode.create_file("/uv")
    return hdfs, cost, config, pipeline


def test_upload_block_creates_divergent_replicas(hail_setup, uservisits_sample):
    hdfs, cost, config, pipeline = hail_setup
    ledger = TransferLedger(hdfs.cluster, cost)
    result = pipeline.upload_block("/uv", uservisits_sample[:120], USERVISITS_SCHEMA, 0, ledger)
    assert result.replication == 3
    assert result.indexes_created == ("visitDate", "sourceIP", "adRevenue")
    payloads = {}
    for datanode_id in result.pipeline:
        replica = hdfs.read_replica(result.block_id, datanode_id)
        payload = replica.payload
        assert isinstance(payload, HailBlock)
        payloads[datanode_id] = payload
        column = payload.pax.column(payload.sort_attribute)
        assert list(column) == sorted(column)
        # All replicas hold the same logical records despite different sort orders.
        assert sorted(map(repr, payload.pax.records())) == sorted(
            map(repr, uservisits_sample[:120])
        )
    sort_attributes = {p.sort_attribute for p in payloads.values()}
    assert sort_attributes == {"visitDate", "sourceIP", "adRevenue"}


def test_upload_registers_replica_info_in_dir_rep(hail_setup, uservisits_sample):
    hdfs, cost, config, pipeline = hail_setup
    ledger = TransferLedger(hdfs.cluster, cost)
    result = pipeline.upload_block("/uv", uservisits_sample[:60], USERVISITS_SCHEMA, 1, ledger)
    infos = hdfs.namenode.replica_infos(result.block_id)
    assert len(infos) == 3
    assert {info.indexed_attribute for info in infos.values()} == {
        "visitDate",
        "sourceIP",
        "adRevenue",
    }
    for info in infos.values():
        assert info.indexed_attribute is not None
        assert info.block_size_bytes > 0
        assert info.index_size_bytes > 0


def test_upload_checksums_differ_across_replicas(hail_setup, uservisits_sample):
    hdfs, cost, config, pipeline = hail_setup
    ledger = TransferLedger(hdfs.cluster, cost)
    result = pipeline.upload_block("/uv", uservisits_sample[:50], USERVISITS_SCHEMA, 0, ledger)
    checksums = [
        hdfs.read_replica(result.block_id, datanode_id).checksums
        for datanode_id in result.pipeline
    ]
    assert all(checksums)
    assert len({tuple(c) for c in checksums}) == 3  # each replica re-computes its own


def test_upload_charges_cpu_on_every_datanode(hail_setup, uservisits_sample):
    hdfs, cost, config, pipeline = hail_setup
    ledger = TransferLedger(hdfs.cluster, cost)
    result = pipeline.upload_block("/uv", uservisits_sample[:80], USERVISITS_SCHEMA, 0, ledger)
    for datanode_id in result.pipeline:
        assert ledger.usage(datanode_id).cpu_seconds > 0
        assert ledger.usage(datanode_id).disk_write_bytes > 0
    assert ledger.usage(0).disk_read_bytes > 0  # client read of the source data
    assert result.pax_bytes > 0 and result.text_bytes > 0


def test_upload_separates_bad_records(hail_setup):
    hdfs, cost, config, pipeline = hail_setup
    generator = WebLogGenerator(seed=4, bad_record_rate=0.2)
    lines = generator.generate_lines(100)
    hdfs.namenode.create_file("/logs")
    ledger = TransferLedger(hdfs.cluster, cost)
    config_logs = HailConfig.for_attributes(["statusCode"], functional_partition_size=2)
    log_pipeline = HailUploadPipeline(hdfs, cost, config_logs)
    result = log_pipeline.upload_block(
        "/logs", [], generator.schema, 0, ledger, raw_lines=lines
    )
    assert result.num_bad_records > 0
    replica = hdfs.read_replica(result.block_id, result.pipeline[0])
    assert len(replica.payload.bad_lines) == result.num_bad_records
    assert replica.payload.num_records + result.num_bad_records == 100


def test_upload_respects_num_indexes_zero(uservisits_sample):
    cluster = Cluster.homogeneous(4, seed=2)
    cost = CostModel(CostParameters(enable_variance=False))
    hdfs = Hdfs(cluster, cost)
    config = HailConfig(index_attributes=(), replication=3)
    pipeline = HailUploadPipeline(hdfs, cost, config)
    hdfs.namenode.create_file("/uv")
    ledger = TransferLedger(cluster, cost)
    result = pipeline.upload_block("/uv", uservisits_sample[:40], USERVISITS_SCHEMA, 0, ledger)
    assert result.indexes_created == ()
    for datanode_id in result.pipeline:
        payload = hdfs.read_replica(result.block_id, datanode_id).payload
        assert payload.index is None


# --------------------------------------------------------------------------- scheduler helpers
def test_indexed_host_choice_prefers_local_and_falls_back(hail_setup, uservisits_sample):
    hdfs, cost, config, pipeline = hail_setup
    ledger = TransferLedger(hdfs.cluster, cost)
    result = pipeline.upload_block("/uv", uservisits_sample[:60], USERVISITS_SCHEMA, 0, ledger)
    block_id = result.block_id
    planner = PhysicalPlanner(hdfs)
    visit_host = hdfs.namenode.hosts_with_index(block_id, "visitDate")[0]
    visits = Predicate.equals("visitDate", uservisits_sample[0][2])
    plan = planner.plan_block(block_id, HailQuery(filter=visits), prefer_node=visit_host)
    assert (plan.datanode_id, plan.attribute) == (visit_host, "visitDate")
    # Conjunction: the first attribute with an index wins.
    words = Predicate.equals("searchWord", "x")
    conjunction = Predicate(words.clauses + Predicate.equals("sourceIP", "1.2.3.4").clauses)
    plan = planner.plan_block(block_id, HailQuery(filter=conjunction))
    assert plan.access_path is AccessPath.INDEX_SCAN and plan.attribute == "sourceIP"
    assert plan.datanode_id in hdfs.namenode.hosts_with_index(block_id, "sourceIP")
    plan = planner.plan_block(block_id, HailQuery(filter=words))
    assert plan.access_path is not AccessPath.INDEX_SCAN


def test_index_coverage_and_distribution(hail_setup, uservisits_sample):
    hdfs, cost, config, pipeline = hail_setup
    ledger = TransferLedger(hdfs.cluster, cost)
    for start in range(0, 300, 100):
        pipeline.upload_block("/uv", uservisits_sample[start : start + 100], USERVISITS_SCHEMA, 0, ledger)
    assert index_coverage(hdfs.namenode, "/uv", "visitDate") == pytest.approx(1.0)
    assert index_coverage(hdfs.namenode, "/uv", "searchWord") == 0.0
    distribution = replica_distribution(hdfs.namenode, "/uv")
    assert distribution == {"visitDate": 3, "sourceIP": 3, "adRevenue": 3}


def test_index_coverage_drops_when_indexed_node_dies(hail_setup, uservisits_sample):
    hdfs, cost, config, pipeline = hail_setup
    ledger = TransferLedger(hdfs.cluster, cost)
    result = pipeline.upload_block("/uv", uservisits_sample[:60], USERVISITS_SCHEMA, 0, ledger)
    visit_host = hdfs.namenode.hosts_with_index(result.block_id, "visitDate")[0]
    hdfs.cluster.kill_node(visit_host)
    assert index_coverage(hdfs.namenode, "/uv", "visitDate") == 0.0
    # The block itself is still recoverable from the other replicas.
    assert len(hdfs.namenode.block_datanodes(result.block_id)) == 2
    hdfs.cluster.revive_all()
