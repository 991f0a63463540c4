"""Integration tests across the three systems.

The functional ground truth is the generated dataset itself: every system must return exactly
the same query results, for every workload query, with and without HailSplitting, and after node
failures — the paper's systems differ in *performance*, never in *answers*.
"""

from datetime import date

import pytest

from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters, FailureEvent, FailureInjector
from repro.datagen import SYNTHETIC_SCHEMA, USERVISITS_SCHEMA, SyntheticGenerator, UserVisitsGenerator
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.mapreduce.counters import Counters
from repro.query.predicate import Query
from repro.workloads import bob_queries, synthetic_queries


def _cost():
    return CostModel(CostParameters(enable_variance=False))


def _brute_force(rows, schema, query):
    projection = query.projection if query.projection is not None else schema.field_names
    indexes = [schema.index_of(name) for name in projection]
    out = []
    for row in rows:
        if query.predicate is None or query.predicate.matches(row, schema):
            out.append(tuple(row[i] for i in indexes))
    return sorted(out, key=repr)


@pytest.fixture(scope="module")
def uservisits_deployment():
    rows = UserVisitsGenerator(seed=21, probe_ip_rate=1 / 300).generate(1200)
    systems = {
        "Hadoop": HadoopSystem(Cluster.homogeneous(4, seed=3), cost=_cost()),
        "Hadoop++": HadoopPlusPlusSystem(
            Cluster.homogeneous(4, seed=3), trojan_attribute="sourceIP", cost=_cost(),
            functional_partition_size=2,
        ),
        "HAIL": HailSystem(
            Cluster.homogeneous(4, seed=3),
            config=HailConfig.for_attributes(
                ["visitDate", "sourceIP", "adRevenue"], functional_partition_size=2
            ),
            cost=_cost(),
        ),
    }
    for system in systems.values():
        system.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=150)
    return rows, systems


@pytest.fixture(scope="module")
def synthetic_deployment():
    rows = SyntheticGenerator(seed=23).generate(900)
    systems = {
        "Hadoop": HadoopSystem(Cluster.homogeneous(4, seed=4), cost=_cost()),
        "Hadoop++": HadoopPlusPlusSystem(
            Cluster.homogeneous(4, seed=4), trojan_attribute="f1", cost=_cost(),
            functional_partition_size=2,
        ),
        "HAIL": HailSystem(
            Cluster.homogeneous(4, seed=4),
            config=HailConfig.for_attributes(["f1", "f2", "f3"], functional_partition_size=2),
            cost=_cost(),
        ),
    }
    for system in systems.values():
        system.upload("/syn", rows, SYNTHETIC_SCHEMA, rows_per_block=150)
    return rows, systems


@pytest.mark.parametrize("query_index", range(5))
def test_bob_queries_agree_across_systems(uservisits_deployment, query_index):
    rows, systems = uservisits_deployment
    query = bob_queries()[query_index]
    expected = _brute_force(rows, USERVISITS_SCHEMA, query)
    for name, system in systems.items():
        result = system.run_query(query, "/uv")
        assert result.sorted_records() == expected, f"{name} disagrees on {query.name}"


@pytest.mark.parametrize("query_index", range(6))
def test_synthetic_queries_agree_across_systems(synthetic_deployment, query_index):
    rows, systems = synthetic_deployment
    query = synthetic_queries()[query_index]
    expected = _brute_force(rows, SYNTHETIC_SCHEMA, query)
    for name, system in systems.items():
        result = system.run_query(query, "/syn")
        assert result.sorted_records() == expected, f"{name} disagrees on {query.name}"


def test_hail_results_identical_with_and_without_splitting(uservisits_deployment):
    rows, systems = uservisits_deployment
    query = bob_queries()[0]
    with_splitting = systems["HAIL"].run_query(query, "/uv").sorted_records()

    no_split_config = HailConfig.for_attributes(
        ["visitDate", "sourceIP", "adRevenue"], functional_partition_size=2, splitting_policy=False
    )
    no_split = HailSystem(Cluster.homogeneous(4, seed=3), config=no_split_config, cost=_cost())
    no_split.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=150)
    without_splitting = no_split.run_query(query, "/uv").sorted_records()
    assert with_splitting == without_splitting
    assert with_splitting == _brute_force(rows, USERVISITS_SCHEMA, query)


def test_hail_query_correct_under_node_failure(uservisits_deployment):
    rows, systems = uservisits_deployment
    hail = systems["HAIL"]
    query = bob_queries()[0]
    expected = _brute_force(rows, USERVISITS_SCHEMA, query)
    injector = FailureInjector(hail.cluster, seed=6)
    failure = injector.random_node_failure(at_progress=0.5, expiry_interval_s=1.0)
    result = hail.run_query(query, "/uv", failure=failure)
    hail.cluster.revive_all()
    assert result.sorted_records() == expected
    assert result.job.rescheduled_tasks >= 0


@pytest.mark.parametrize("system_name", ["Hadoop", "HAIL"])
def test_failure_run_ledger_charges_only_accepted_attempts(uservisits_deployment, system_name):
    """A node kill changes the timeline, not the functional counters.

    The attempts lost with the node leave launch bookkeeping behind (``LAUNCHED_MAP_TASKS``,
    ``RESCHEDULED_MAP_TASKS``) but none of their functional counters — the serial fork this
    pins against used to keep them in the job's bag (no double-charge, ROADMAP §3).
    """
    rows, systems = uservisits_deployment
    system = systems[system_name]
    query = Query(name="full", predicate=bob_queries()[0].predicate, projection=None)
    healthy = system.run_query(query, "/uv")
    result = system.run_query(query, "/uv", failure=FailureEvent(node_id=1, at_progress=0.5))
    system.cluster.revive_all()
    assert result.sorted_records() == _brute_force(rows, USERVISITS_SCHEMA, query)
    assert result.job.failure_node == 1
    assert result.job.rescheduled_tasks > 0, "degenerate test: the kill lost no attempt"
    assert result.runtime_s > healthy.runtime_s
    counters = result.job.counters
    assert counters.value(Counters.MAP_OUTPUT_RECORDS) == len(result.records) > 0
    if system_name == "Hadoop":
        # Text replicas are interchangeable, so re-execution reads exactly the same bytes
        # (HAIL's re-executed tasks may fall back to a scan on a differently-indexed replica).
        for name in (Counters.MAP_INPUT_RECORDS, Counters.BYTES_READ):
            assert counters.value(name) == healthy.job.counters.value(name)
    # The launch audit, on the serial entry point: every launch is accepted or rescheduled.
    assert counters.value(Counters.RESCHEDULED_MAP_TASKS) == result.job.rescheduled_tasks
    assert counters.value(Counters.LAUNCHED_MAP_TASKS) == (
        len(result.job.task_results) + counters.value(Counters.RESCHEDULED_MAP_TASKS)
    )


def test_hail_falls_back_to_scan_when_indexed_replicas_lost(uservisits_deployment):
    rows, systems = uservisits_deployment
    hail = systems["HAIL"]
    query = bob_queries()[3]  # adRevenue range
    expected = _brute_force(rows, USERVISITS_SCHEMA, query)
    # Kill every datanode holding an adRevenue-indexed replica of some block.
    block_id = hail.hdfs.namenode.file_blocks("/uv")[0]
    for datanode_id in list(hail.hdfs.namenode.hosts_with_index(block_id, "adRevenue")):
        hail.cluster.kill_node(datanode_id)
    try:
        result = hail.run_query(query, "/uv")
        assert result.sorted_records() == expected
        assert result.job.counters.value("FULL_SCANS") > 0
    finally:
        hail.cluster.revive_all()


def test_upload_reports_disk_footprint(uservisits_deployment):
    _, systems = uservisits_deployment
    # HAIL's three indexed PAX replicas need roughly the same disk space as Hadoop's three text
    # replicas (the paper's disk-space argument in Section 6.3.2).
    hadoop_bytes = systems["Hadoop"].hdfs.total_stored_bytes()
    hail_bytes = systems["HAIL"].hdfs.total_stored_bytes()
    assert hail_bytes < 1.3 * hadoop_bytes
