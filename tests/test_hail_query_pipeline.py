"""Tests for the HAIL query pipeline: input format (HailSplitting), record reader, scheduling."""

from dataclasses import replace
from datetime import date

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.hail.config import HailConfig
from repro.hail.input_format import HailInputFormat
from repro.hail.system import HailSystem
from repro.mapreduce import JobConf
from repro.query.annotation import JOB_PROPERTY, HailQuery
from repro.query.predicate import Predicate
from repro.workloads import bob_queries


@pytest.fixture(scope="module")
def hail_system():
    """A HAIL deployment with Bob's three indexes and ~16 uploaded blocks."""
    cluster = Cluster.homogeneous(4, seed=5)
    cost = CostModel(CostParameters(enable_variance=False))
    config = HailConfig.for_attributes(
        ["visitDate", "sourceIP", "adRevenue"], functional_partition_size=2
    )
    system = HailSystem(cluster, config=config, cost=cost)
    rows = UserVisitsGenerator(seed=9, probe_ip_rate=1 / 300).generate(1600)
    system.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=100)
    return system, rows


def _annotated_jobconf(system, predicate, projection, splitting=True):
    config = replace(system.config, splitting_policy=splitting)
    conf = JobConf(
        name="q",
        input_path="/uv",
        mapper=lambda key, record: None if record.bad else [(None, record.as_tuple())],
        input_format=HailInputFormat(config),
    )
    conf.properties[JOB_PROPERTY] = HailQuery(filter=predicate, projection=projection)
    return conf


# --------------------------------------------------------------------------- input format / splitting
def test_default_splitting_one_split_per_block(hail_system):
    system, _ = hail_system
    conf = _annotated_jobconf(
        system, Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1)), ("sourceIP",),
        splitting=False,
    )
    splits = conf.input_format.get_splits(system.hdfs, conf, system.cost)
    assert len(splits) == 16
    for split in splits:
        assert split.num_blocks == 1
        preferred = split.preferred_replicas[split.block_ids[0]]
        info = system.hdfs.namenode.replica_info(split.block_ids[0], preferred)
        assert info.indexed_attribute == "visitDate"
        assert split.locations[0] == preferred


def test_hail_splitting_groups_blocks_by_indexed_datanode(hail_system):
    system, _ = hail_system
    conf = _annotated_jobconf(
        system, Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1)), ("sourceIP",),
        splitting=True,
    )
    splits = conf.input_format.get_splits(system.hdfs, conf, system.cost)
    # At most map_slots splits per datanode holding matching-index replicas.
    assert len(splits) < 16
    covered = [block for split in splits for block in split.block_ids]
    assert sorted(covered) == sorted(system.hdfs.namenode.file_blocks("/uv"))
    for split in splits:
        assert len(split.locations) == 1
        for block_id, datanode_id in split.preferred_replicas.items():
            info = system.hdfs.namenode.replica_info(block_id, datanode_id)
            assert info.indexed_attribute == "visitDate"


def test_splitting_falls_back_without_filter(hail_system):
    system, _ = hail_system
    conf = _annotated_jobconf(system, None, None, splitting=True)
    splits = conf.input_format.get_splits(system.hdfs, conf, system.cost)
    assert len(splits) == 16


def test_splitting_falls_back_without_matching_index(hail_system):
    system, _ = hail_system
    conf = _annotated_jobconf(system, Predicate.equals("searchWord", "hadoop"), ("duration",))
    splits = conf.input_format.get_splits(system.hdfs, conf, system.cost)
    assert len(splits) == 16  # one per block: standard splitting for scan jobs


def test_split_phase_is_free_for_hail(hail_system):
    system, _ = hail_system
    conf = _annotated_jobconf(system, Predicate.equals("sourceIP", "1.2.3.4"), None)
    assert conf.input_format.split_phase_cost(system.hdfs, conf, system.cost, 16) == 0.0


# --------------------------------------------------------------------------- record reader + end to end
def test_index_scan_returns_correct_records(hail_system):
    system, rows = hail_system
    query = bob_queries()[0]  # visitDate between 1999-01-01 and 2000-01-01
    result = system.run_query(query, "/uv")
    expected = sorted(
        (r[0],) for r in rows if date(1999, 1, 1) <= r[2] <= date(2000, 1, 1)
    )
    assert sorted(result.records) == expected
    assert result.job.counters.value("INDEX_SCANS") > 0
    assert result.job.counters.value("FULL_SCANS") == 0


def test_scan_fallback_returns_correct_records(hail_system):
    system, rows = hail_system
    from repro.query.predicate import Query

    query = Query(
        name="unindexed",
        predicate=Predicate.equals("searchWord", "hadoop"),
        projection=("searchWord", "duration"),
        description="scan fallback",
    )
    result = system.run_query(query, "/uv")
    expected = sorted((r[7], r[8]) for r in rows if r[7] == "hadoop")
    assert sorted(result.records) == expected
    assert result.job.counters.value("FULL_SCANS") > 0


def test_conjunction_uses_index_on_first_indexed_attribute(hail_system):
    system, rows = hail_system
    query = bob_queries()[2]  # sourceIP = probe AND visitDate = 1992-12-22
    result = system.run_query(query, "/uv")
    expected = sorted(
        (r[7], r[8], r[3])
        for r in rows
        if r[0] == "172.101.11.46" and r[2] == date(1992, 12, 22)
    )
    assert sorted(result.records) == expected
    assert result.job.counters.value("INDEX_SCANS") > 0


def test_index_scan_reads_fewer_bytes_than_scan_fallback(hail_system):
    system, _ = hail_system
    indexed = system.run_query(bob_queries()[1], "/uv")  # sourceIP equality via index
    from repro.query.predicate import Query

    scan = system.run_query(
        Query(
            name="scan",
            predicate=Predicate.equals("searchWord", "hadoop"),
            projection=("searchWord",),
            description="",
        ),
        "/uv",
    )
    assert indexed.job.counters.value("BYTES_READ") < scan.job.counters.value("BYTES_READ")


def test_projection_limits_returned_attributes(hail_system):
    system, rows = hail_system
    query = bob_queries()[0]
    result = system.run_query(query, "/uv")
    assert all(len(record) == 1 for record in result.records)


def test_replica_distribution_reporting(hail_system):
    system, _ = hail_system
    distribution = system.replica_distribution("/uv")
    assert set(distribution) == {"visitDate", "sourceIP", "adRevenue"}
    assert system.index_coverage("/uv", "sourceIP") == pytest.approx(1.0)
    assert system.num_indexes() == 3
