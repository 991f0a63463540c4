"""Failure injection under adaptive indexing: Dir_rep must never be left half-registered.

A datanode dying mid-query kills map-task attempts that had already staged adaptive index
builds.  Those builds must vanish with the attempts — the namenode must not end up pointing at
replicas that were never flushed — and the rescheduled attempts must not register the same
block index twice.  The commit step runs while the failed node is still marked dead, so builds
that targeted it are dropped wholesale.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.cluster.failure import FailureEvent
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine import AccessPath, PhysicalPlanner
from repro.hail.config import HailConfig
from repro.hail.scheduler import check_dir_rep_consistency
from repro.hail.system import HailSystem
from repro.query.predicate import Operator, Predicate, Query

_PATH = "/fail/synthetic"


def _cost():
    return CostModel(CostParameters(enable_variance=False, data_scale=200.0))


def _adaptive_system(num_nodes: int = 4) -> HailSystem:
    system = HailSystem(
        Cluster.homogeneous(num_nodes, seed=3),
        config=HailConfig(
            index_attributes=(),
            functional_partition_size=1,
            splitting_policy=False,
            adaptive_indexing=True,
            adaptive_offer_rate=1.0,
        ),
        cost=_cost(),
    )
    system.upload(_PATH, _records(), SYNTHETIC_SCHEMA, rows_per_block=100)
    return system


def _records() -> list[tuple]:
    return SyntheticGenerator(seed=5).generate(1600)


def _query(name: str = "q", attribute: str = "f1") -> Query:
    return Query(
        name=name,
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=(attribute,),
        description="",
    )


def test_datanode_death_leaves_no_half_registered_adaptive_index():
    system = _adaptive_system()
    failed_node = 1
    result = system.run_query(
        _query(), _PATH, failure=FailureEvent(failed_node, at_progress=0.3, expiry_interval_s=1.0)
    )
    assert result.job.failure_node == failed_node
    assert result.job.rescheduled_tasks > 0

    # Every Dir_rep entry matches a stored replica; no (block, attribute) was built twice.
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []

    # The commit ran while the node was dead: no adaptive index was registered against it,
    # even for attempts that finished before the kill.
    namenode = system.hdfs.namenode
    for block_id in namenode.file_blocks(_PATH):
        info = namenode.replica_info(block_id, failed_node)
        assert info is None or not info.is_adaptive

    # The query itself still answered correctly despite the mid-flight failure.
    expected = sorted(
        ((record[0],) for record in _records() if record[0] < VALUE_RANGE // 10), key=repr
    )
    assert result.sorted_records() == expected


def test_reschedules_do_not_double_build_and_workload_still_converges():
    system = _adaptive_system()
    failure = FailureEvent(node_id=2, at_progress=0.5, expiry_interval_s=1.0)
    system.run_query(_query("q0"), _PATH, failure=failure)
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []
    coverage_after_failure = system.index_coverage(_PATH, "f1")

    # Follow-up queries (on the revived cluster) fill the gaps the failure left; the adaptive
    # state stays consistent and converges to full coverage with exactly one index per block.
    for round_number in range(1, 4):
        system.run_query(_query(f"q{round_number}"), _PATH)
        assert check_dir_rep_consistency(system.hdfs, _PATH) == []
    assert system.index_coverage(_PATH, "f1") == pytest.approx(1.0)
    assert system.index_coverage(_PATH, "f1") >= coverage_after_failure
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    assert system.adaptive_replica_count(_PATH) == num_blocks


def test_rebuild_after_node_revival_leaves_no_duplicate_adaptive_index():
    """An adaptive index rebuilt while its original host is dead supersedes the stale one.

    Round 1 commits adaptive indexes; a later query runs while one of those hosts is dead and
    rebuilds the lost block indexes elsewhere.  When the node revives, the stale adaptive
    replicas must be gone (garbage-collected at commit) — exactly one adaptive index per
    (block, attribute), and Dir_rep consistent throughout.
    """
    system = _adaptive_system()
    system.run_query(_query("warmup"), _PATH)  # converge: every block indexed adaptively
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    assert system.adaptive_replica_count(_PATH) == num_blocks

    victim = next(
        datanode_id
        for block_id in system.hdfs.namenode.file_blocks(_PATH)
        for datanode_id in system.hdfs.namenode.hosts_with_index(block_id, "f1")
    )
    system.run_query(
        _query("rebuild"), _PATH,
        failure=FailureEvent(victim, at_progress=0.0, expiry_interval_s=1.0),
    )
    # The runner revived the victim after the job; no duplicates may have resurrected.
    assert system.cluster.node(victim).is_alive
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []
    assert system.adaptive_replica_count(_PATH) == num_blocks
    assert system.index_coverage(_PATH, "f1") == pytest.approx(1.0)


def test_explain_names_the_lost_indexed_replica():
    """A block whose only indexed replica sits on a dead datanode says so in explain()."""
    system = HailSystem(
        Cluster.homogeneous(4, seed=3),
        config=HailConfig(index_attributes=("f1",), functional_partition_size=1),
        cost=_cost(),
    )
    records = SyntheticGenerator(seed=5).generate(400)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)

    namenode = system.hdfs.namenode
    block_id = namenode.file_blocks(_PATH)[0]
    indexed_host = namenode.hosts_with_index(block_id, "f1")[0]
    system.cluster.kill_node(indexed_host)
    try:
        plan = PhysicalPlanner(system.hdfs).plan_query(
            _PATH, system._annotation_for(_query())
        )
        block_plan = plan.plan_for(block_id)
        assert not block_plan.uses_index
        assert block_plan.fallback_reason is not None
        assert "lost" in block_plan.fallback_reason
        assert f"dn{indexed_host}" in block_plan.fallback_reason
        assert "lost" in plan.explain()
        # Blocks whose indexed replica is alive keep index scans and carry no fallback reason.
        for other in plan.block_plans:
            if other.access_path is AccessPath.INDEX_SCAN:
                assert other.fallback_reason is None
    finally:
        system.cluster.node(indexed_host).revive()
