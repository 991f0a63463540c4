"""Unit tests for the engine's physical planner, BlockPlan and QueryPlan.explain()."""

from datetime import date

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine import AccessPath, PhysicalPlanner, QueryPlan
from repro.engine.access_path import BlockPlan
from repro.engine.planner import BoundQuery
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.query.annotation import HailQuery
from repro.query.predicate import Predicate, Query
from repro.workloads import bob_queries


def _cost():
    return CostModel(CostParameters(enable_variance=False))


@pytest.fixture(scope="module")
def hail_deployment():
    system = HailSystem(
        Cluster.homogeneous(4, seed=5),
        config=HailConfig.for_attributes(
            ["visitDate", "sourceIP", "adRevenue"], functional_partition_size=2
        ),
        cost=_cost(),
    )
    rows = UserVisitsGenerator(seed=9, probe_ip_rate=1 / 100).generate(600)
    system.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=100)
    return system, rows


# --------------------------------------------------------------------------- replica choice
def test_planner_picks_indexed_replica_per_block(hail_deployment):
    system, _ = hail_deployment
    planner = PhysicalPlanner(system.hdfs)
    annotation = HailQuery(filter=Predicate.equals("sourceIP", "1.2.3.4"))
    plan = planner.plan_query("/uv", annotation)
    assert plan.num_blocks == len(system.hdfs.namenode.file_blocks("/uv"))
    for block_plan in plan.block_plans:
        assert block_plan.access_path is AccessPath.INDEX_SCAN
        assert block_plan.attribute == "sourceIP"
        info = system.hdfs.namenode.replica_info(block_plan.block_id, block_plan.datanode_id)
        assert info.indexed_attribute == "sourceIP"
    assert plan.index_coverage == pytest.approx(1.0)


def test_planner_preferred_replica_wins(hail_deployment):
    system, _ = hail_deployment
    planner = PhysicalPlanner(system.hdfs)
    block_id = system.hdfs.namenode.file_blocks("/uv")[0]
    hosts = system.hdfs.namenode.block_datanodes(block_id)
    preferred = hosts[-1]
    plan = planner.plan_block(
        block_id,
        BoundQuery.bind(
            HailQuery(filter=Predicate.equals("sourceIP", "1.2.3.4")), system.schema_of("/uv")
        ),
        preferred=preferred,
    )
    assert plan.datanode_id == preferred


def test_planner_prefers_local_indexed_replica(hail_deployment):
    system, _ = hail_deployment
    planner = PhysicalPlanner(system.hdfs)
    block_id = system.hdfs.namenode.file_blocks("/uv")[0]
    local = system.hdfs.namenode.hosts_with_index(block_id, "visitDate")[0]
    plan = planner.plan_block(
        block_id,
        BoundQuery.bind(
            HailQuery(filter=Predicate.equals("visitDate", date(1999, 1, 1))),
            system.schema_of("/uv"),
        ),
        prefer_node=local,
    )
    assert plan.datanode_id == local
    assert plan.access_path is AccessPath.INDEX_SCAN


def test_planner_scan_fallback_names_the_reason(hail_deployment):
    system, _ = hail_deployment
    planner = PhysicalPlanner(system.hdfs)
    annotation = HailQuery(
        filter=Predicate.equals("searchWord", "hadoop"), projection=("searchWord",)
    )
    plan = planner.plan_query("/uv", annotation)
    for block_plan in plan.block_plans:
        assert block_plan.access_path is AccessPath.PAX_PROJECTION_SCAN
        assert "searchWord" in block_plan.fallback_reason
    assert plan.num_index_scans == 0


def test_planner_full_scan_without_filter_or_projection(hail_deployment):
    system, _ = hail_deployment
    planner = PhysicalPlanner(system.hdfs)
    plan = planner.plan_query("/uv", HailQuery())
    assert all(p.access_path is AccessPath.FULL_SCAN for p in plan.block_plans)
    assert plan.filter_attributes == ()


def test_text_replicas_plan_as_full_scans():
    from repro.baselines import HadoopSystem

    generator = UserVisitsGenerator(seed=3)
    system = HadoopSystem(Cluster.homogeneous(4, seed=1), cost=_cost())
    system.upload("/uv", generator.generate(200), generator.schema, rows_per_block=100)
    plan = system.plan_query(bob_queries()[0], "/uv")
    assert all(p.access_path is AccessPath.FULL_SCAN for p in plan.block_plans)
    assert plan.num_index_scans == 0


def test_trojan_replicas_plan_as_trojan_index_scans():
    from repro.baselines import HadoopPlusPlusSystem

    generator = UserVisitsGenerator(seed=3, probe_ip_rate=1 / 100)
    system = HadoopPlusPlusSystem(
        Cluster.homogeneous(4, seed=1), trojan_attribute="sourceIP", cost=_cost()
    )
    system.upload("/uv", generator.generate(200), generator.schema, rows_per_block=100)
    plan = system.plan_query(bob_queries()[1], "/uv")  # sourceIP equality
    assert all(p.access_path is AccessPath.TROJAN_INDEX_SCAN for p in plan.block_plans)


# --------------------------------------------------------------------------- explain()
def test_explain_names_access_path_and_replica_per_block(hail_deployment):
    system, _ = hail_deployment
    text = system.explain(bob_queries()[0], "/uv")
    assert "QueryPlan for '/uv'" in text
    assert "visitDate" in text
    block_ids = system.hdfs.namenode.file_blocks("/uv")
    for block_id in block_ids:
        assert f"block {block_id}: index_scan" in text
    assert "replica@dn" in text
    assert f"{len(block_ids)} blocks: {len(block_ids)} index_scan" in text


def test_explain_renders_scan_jobs(hail_deployment):
    system, _ = hail_deployment
    query = Query(name="scan", predicate=None, projection=None, description="")
    text = system.explain(query, "/uv")
    assert "filter attributes: (none — scan job)" in text
    assert "projection: * (all attributes)" in text
    assert "full_scan" in text


def test_query_result_exposes_its_plan(hail_deployment):
    system, _ = hail_deployment
    result = system.run_query(bob_queries()[1], "/uv")
    num_blocks = len(system.hdfs.namenode.file_blocks("/uv"))
    assert isinstance(result.plan, QueryPlan)
    assert result.plan.num_blocks == num_blocks
    assert result.plan.num_index_scans == num_blocks
    assert "index_scan" in result.explain()
    summary = result.plan.summary()
    assert summary["index_scans"] == num_blocks
    assert summary["index_coverage"] == pytest.approx(1.0)


def test_executed_plan_keeps_index_scan_label_for_row_layout_ablation():
    """The 'no PAX conversion' ablation is row-layout but NOT a trojan index (regression)."""
    generator = UserVisitsGenerator(seed=3)
    system = HailSystem(
        Cluster.homogeneous(4, seed=1),
        config=HailConfig.for_attributes(["visitDate"], convert_to_pax=False),
        cost=_cost(),
    )
    system.upload("/uv", generator.generate(200), generator.schema, rows_per_block=100)
    result = system.run_query(bob_queries()[0], "/uv")
    for block_plan in result.plan.block_plans:
        assert block_plan.access_path is AccessPath.INDEX_SCAN
        assert block_plan.fallback_reason is None


def test_query_result_plan_reflects_executed_attempts(hail_deployment):
    """QueryResult.plan is assembled from the map tasks' executed block plans."""
    system, _ = hail_deployment
    result = system.run_query(bob_queries()[0], "/uv")
    executed = {
        plan.block_id
        for attempt in result.job.task_results
        for plan in attempt.result.block_plans
    }
    assert sorted(executed) == system.hdfs.namenode.file_blocks("/uv")
    assert sorted(p.block_id for p in result.plan.block_plans) == sorted(executed)
    # Executed plans carry refined estimates (candidate rows after the index lookup).
    assert all(p.estimated_bytes > 0 for p in result.plan.block_plans)


def test_failover_plan_reports_the_fallbacks_that_happened():
    """Under failure injection the plan shows what surviving attempts did, not a re-plan."""
    from repro.cluster.failure import FailureEvent

    generator = UserVisitsGenerator(seed=3)
    system = HailSystem(
        Cluster.homogeneous(4, seed=1),
        config=HailConfig.for_attributes(["visitDate"], functional_partition_size=2),
        cost=_cost(),
    )
    system.upload("/uv", generator.generate(400), generator.schema, rows_per_block=100)
    failure = FailureEvent(node_id=0, at_progress=0.0, expiry_interval_s=1.0)
    result = system.run_query(bob_queries()[0], "/uv", failure=failure)
    assert sorted(p.block_id for p in result.plan.block_plans) == (
        system.hdfs.namenode.file_blocks("/uv")
    )
    # Every executed plan names a replica that was actually opened (never the dead node
    # after its tasks were rescheduled — the dead node's surviving attempts finished
    # before the kill, so any dn0 entries must be index scans that completed).
    assert result.plan.num_blocks == len(system.hdfs.namenode.file_blocks("/uv"))


def test_block_plan_describe_handles_missing_replica():
    plan = BlockPlan(
        block_id=7,
        access_path=AccessPath.FULL_SCAN,
        datanode_id=-1,
        fallback_reason="no alive replica",
    )
    text = plan.describe()
    assert "no-replica" in text
    assert "no alive replica" in text
