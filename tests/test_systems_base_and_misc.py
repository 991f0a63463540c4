"""Tests for the shared system facade helpers, replica info, and remaining experiment harnesses."""

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.experiments import ExperimentConfig, scaleout
from repro.hail import HailSystem
from repro.hail.replica_info import HailBlockReplicaInfo
from repro.systems.base import QueryResult, SystemUploadReport, _partition
from repro.workloads import bob_queries


# --------------------------------------------------------------------------- partition helper
def test_partition_splits_contiguously_and_evenly():
    items = list(range(10))
    shares = _partition(items, 3)
    assert shares == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert _partition(items, 20)[:10] == [[i] for i in range(10)]
    assert _partition([], 4) == [[], [], [], []]
    with pytest.raises(ValueError):
        _partition(items, 0)


# --------------------------------------------------------------------------- upload report / query result
def test_system_upload_report_derived_metrics():
    report = SystemUploadReport(
        system="HAIL",
        path="/p",
        upload_s=10.0,
        post_processing_s=2.5,
        num_blocks=4,
        num_records=400,
        source_text_bytes=1000,
        stored_bytes=2900,
        replication=3,
        num_indexes=3,
    )
    assert report.total_s == pytest.approx(12.5)
    assert report.blowup == pytest.approx(2.9)
    empty = SystemUploadReport("Hadoop", "/p", 0, 0, 0, 0, 0, 0, 3)
    assert empty.blowup == 0.0


def test_query_result_accessors():
    from repro.mapreduce.counters import Counters
    from repro.mapreduce.job import JobResult

    job = JobResult(
        job_name="j",
        output=[(None, (2,)), (None, (1,))],
        runtime_s=12.0,
        ideal_time_s=2.0,
        num_map_tasks=4,
        num_waves=1,
        avg_record_reader_s=0.5,
        max_record_reader_s=0.6,
        total_record_reader_s=2.0,
        map_phase_s=5.0,
        reduce_phase_s=0.0,
        split_phase_s=0.0,
        counters=Counters(),
    )
    result = QueryResult(system="HAIL", query_name="Q", records=job.records, job=job)
    assert result.runtime_s == 12.0
    assert result.record_reader_s == 0.5
    assert result.overhead_s == pytest.approx(10.0)
    assert result.sorted_records() == [(1,), (2,)]


# --------------------------------------------------------------------------- replica info
def test_replica_info_covers_and_describe():
    info = HailBlockReplicaInfo(
        datanode_id=2,
        sort_attribute="visitDate",
        indexed_attribute="visitDate",
        index_size_bytes=128,
        block_size_bytes=4096,
        num_records=100,
    )
    assert info.has_index
    assert info.covers("visitDate")
    assert not info.covers("sourceIP")
    assert info.describe()["datanode"] == 2
    unindexed = HailBlockReplicaInfo(datanode_id=1, sort_attribute=None, indexed_attribute=None)
    assert not unindexed.has_index
    assert not unindexed.covers("visitDate")


# --------------------------------------------------------------------------- upload with explicit clients
def test_upload_with_explicit_client_nodes_and_empty_shares():
    rows = UserVisitsGenerator(seed=31).generate(120)
    system = HailSystem(
        Cluster.homogeneous(4, seed=2),
        index_attributes=["visitDate"],
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    report = system.upload(
        "/uv", rows, USERVISITS_SCHEMA, rows_per_block=40, client_nodes=[0, 1]
    )
    # 120 rows split over two clients (60 each), 40 rows per block -> 2 blocks per client.
    assert report.num_blocks == 4
    assert sorted(map(repr, system.hdfs.file_records("/uv"))) == sorted(map(repr, rows))
    with pytest.raises(ValueError):
        system.upload("/uv2", rows, USERVISITS_SCHEMA, client_nodes=[])


def test_system_without_a_cost_model_gets_a_default_one():
    """No ``cost=``: system, HDFS and runner share one fresh default model, at replication 2."""
    from repro.hail import HailConfig

    system = HailSystem(
        Cluster.homogeneous(4, seed=2),
        config=HailConfig.for_attributes(["visitDate"], replication=2),
    )
    assert system.cost is system.hdfs.cost is system.runner.cost
    assert system.hdfs.namenode.replication == 2
    rows = UserVisitsGenerator(seed=31).generate(120)
    system.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=40)
    assert system.run_query(bob_queries()[0], "/uv").runtime_s > 0


def test_run_query_requires_uploaded_path():
    system = HailSystem(Cluster.homogeneous(4), index_attributes=["visitDate"])
    with pytest.raises(KeyError):
        system.run_query(bob_queries()[0], "/never-uploaded")


# --------------------------------------------------------------------------- scale-out harness
def test_fig5_scaleout_constant_per_node_times():
    config = ExperimentConfig(nodes=4, blocks_per_node=2, rows_per_block=60, seed=3)
    result = scaleout.fig5(config, cluster_sizes=(4, 8))
    assert len(result.rows) == 4  # two cluster sizes x two datasets
    synthetic = [row for row in result.rows if row["dataset"] == "Synthetic"]
    assert all(row["hail_s"] < row["hadoop_s"] for row in synthetic)
    hadoop_times = [row["hadoop_s"] for row in synthetic]
    assert max(hadoop_times) < 1.3 * min(hadoop_times)
