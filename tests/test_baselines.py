"""Tests for the stock Hadoop and Hadoop++ baseline systems."""

from datetime import date

import pytest

from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.baselines.hadoop import make_line_parser
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.hail.hail_block import HailBlock
from repro.workloads import bob_queries


def _cost():
    return CostModel(CostParameters(enable_variance=False))


@pytest.fixture(scope="module")
def uservisits_rows():
    return UserVisitsGenerator(seed=13, probe_ip_rate=1 / 250).generate(800)


@pytest.fixture(scope="module")
def hadoop(uservisits_rows):
    system = HadoopSystem(Cluster.homogeneous(4, seed=1), cost=_cost())
    system.upload("/uv", uservisits_rows, USERVISITS_SCHEMA, rows_per_block=100)
    return system


@pytest.fixture(scope="module")
def hadoopplusplus(uservisits_rows):
    system = HadoopPlusPlusSystem(
        Cluster.homogeneous(4, seed=1),
        trojan_attribute="sourceIP",
        cost=_cost(),
        functional_partition_size=2,
    )
    system.upload("/uv", uservisits_rows, USERVISITS_SCHEMA, rows_per_block=100)
    return system


# --------------------------------------------------------------------------- stock Hadoop
def test_hadoop_upload_keeps_text_replicas(hadoop):
    block_id = hadoop.hdfs.namenode.file_blocks("/uv")[0]
    for datanode_id in hadoop.hdfs.namenode.block_datanodes(block_id):
        payload = hadoop.hdfs.read_replica(block_id, datanode_id).payload
        assert payload.layout == "text-row"
    assert hadoop.num_indexes() == 0


def test_hadoop_query_results_match_brute_force(hadoop, uservisits_rows):
    query = bob_queries()[0]
    result = hadoop.run_query(query, "/uv")
    expected = sorted(
        (r[0],) for r in uservisits_rows if date(1999, 1, 1) <= r[2] <= date(2000, 1, 1)
    )
    assert sorted(result.records) == expected
    assert result.job.counters.value("FULL_SCANS") == result.job.num_map_tasks


def test_hadoop_rejects_double_upload(hadoop, uservisits_rows):
    with pytest.raises(ValueError):
        hadoop.upload("/uv", uservisits_rows, USERVISITS_SCHEMA)


def test_hadoop_schema_lookup(hadoop):
    assert hadoop.schema_of("/uv") is USERVISITS_SCHEMA
    with pytest.raises(KeyError):
        hadoop.schema_of("/missing")


def test_scan_mapper_skips_malformed_lines(uservisits_rows):
    parse = make_line_parser(bob_queries()[0], USERVISITS_SCHEMA)
    assert parse("malformed line without delimiters") is None
    assert parse("|".join(["x"] * 9)) is None  # bad date field
    # A well-formed line that qualifies comes back as its projected tuple.
    row = next(r for r in uservisits_rows if date(1999, 1, 1) <= r[2] <= date(2000, 1, 1))
    assert parse(USERVISITS_SCHEMA.format_record(row)) == (row[0],)


# --------------------------------------------------------------------------- Hadoop++
def test_hadoopplusplus_upload_replaces_replicas_with_trojan_blocks(hadoopplusplus):
    block_id = hadoopplusplus.hdfs.namenode.file_blocks("/uv")[0]
    datanodes = hadoopplusplus.hdfs.namenode.block_datanodes(block_id)
    payloads = [hadoopplusplus.hdfs.read_replica(block_id, dn).payload for dn in datanodes]
    assert all(isinstance(p, HailBlock) for p in payloads)
    # All replicas are identical (same logical index on every replica), unlike HAIL.
    assert {p.sort_attribute for p in payloads} == {"sourceIP"}
    assert all(not p.pax_layout for p in payloads)
    assert hadoopplusplus.num_indexes() == 1


def test_hadoopplusplus_upload_is_much_slower_than_hadoop(hadoop, hadoopplusplus, uservisits_rows):
    hadoop_report = HadoopSystem(Cluster.homogeneous(4, seed=1), cost=_cost()).upload(
        "/tmp1", uservisits_rows, USERVISITS_SCHEMA, rows_per_block=100
    )
    hpp = HadoopPlusPlusSystem(
        Cluster.homogeneous(4, seed=1), trojan_attribute="sourceIP", cost=_cost()
    )
    hpp_report = hpp.upload("/tmp2", uservisits_rows, USERVISITS_SCHEMA, rows_per_block=100)
    assert hpp_report.post_processing_s > 0
    assert hpp_report.total_s > 2.0 * hadoop_report.total_s


def test_hadoopplusplus_indexed_query_uses_index(hadoopplusplus, uservisits_rows):
    query = bob_queries()[1]  # sourceIP equality: matches the trojan index
    result = hadoopplusplus.run_query(query, "/uv")
    expected = sorted(
        (r[7], r[8], r[3]) for r in uservisits_rows if r[0] == "172.101.11.46"
    )
    assert sorted(result.records) == expected
    assert result.job.counters.value("INDEX_SCANS") == result.job.num_map_tasks


def test_hadoopplusplus_other_attribute_falls_back_to_scan(hadoopplusplus, uservisits_rows):
    query = bob_queries()[3]  # adRevenue range: not the trojan attribute
    result = hadoopplusplus.run_query(query, "/uv")
    expected = sorted(
        (r[7], r[8], r[3]) for r in uservisits_rows if 1.0 <= r[3] <= 10.0
    )
    assert sorted(result.records) == expected
    assert result.job.counters.value("FULL_SCANS") == result.job.num_map_tasks


def test_hadoopplusplus_split_phase_reads_block_headers(hadoopplusplus):
    query = bob_queries()[1]
    result = hadoopplusplus.run_query(query, "/uv")
    assert result.job.split_phase_s > 0
    assert result.job.num_map_tasks == 8  # one split per block, never HailSplitting


def test_hadoopplusplus_without_trojan_attribute(uservisits_rows):
    system = HadoopPlusPlusSystem(Cluster.homogeneous(4, seed=1), trojan_attribute=None, cost=_cost())
    report = system.upload("/uv", uservisits_rows[:200], USERVISITS_SCHEMA, rows_per_block=100)
    assert system.num_indexes() == 0
    assert report.post_processing_s > 0
    result = system.run_query(bob_queries()[0], "/uv")
    assert result.job.counters.value("FULL_SCANS") == result.job.num_map_tasks
