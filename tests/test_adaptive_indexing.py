"""Unit tests for the adaptive (lazy) indexing subsystem: knobs, staging, commit, plans."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine import AccessPath
from repro.engine.adaptive import (
    AdaptiveJobContext,
    commit_adaptive_builds,
    offer_draw,
)
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.mapreduce.counters import Counters
from repro.query.predicate import Operator, Predicate, Query
from repro.query.schema import FieldType, Schema

_PATH = "/adaptive/synthetic"


def _cost():
    return CostModel(CostParameters(enable_variance=False, data_scale=100.0))


def _system(**adaptive_overrides) -> HailSystem:
    config = HailConfig(
        index_attributes=(),
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        **adaptive_overrides,
    )
    system = HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=_cost())
    records = SyntheticGenerator(seed=3).generate(800)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)
    return system


def _query(name: str = "q") -> Query:
    return Query(
        name=name,
        predicate=Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 10),
        projection=("f1",),
        description="",
    )


# --------------------------------------------------------------------------- knobs
def test_adaptivity_is_off_by_default():
    assert HailConfig().adaptive_indexing is False


def test_config_validates_adaptive_knobs():
    with pytest.raises(ValueError):
        HailConfig(adaptive_offer_rate=1.5)
    with pytest.raises(ValueError):
        HailConfig(adaptive_offer_rate=-0.1)


def test_with_adaptive_copies_and_tunes():
    config = HailConfig().with_adaptive(True, offer_rate=0.25)
    assert config.adaptive_indexing
    assert config.adaptive_offer_rate == 0.25
    assert config.with_adaptive(False).adaptive_indexing is False


# --------------------------------------------------------------------------- offer policy
def test_offer_draw_is_deterministic_and_salt_sensitive():
    assert offer_draw(1, 7, "f1") == offer_draw(1, 7, "f1")
    draws = {offer_draw(salt, 7, "f1") for salt in range(32)}
    assert len(draws) > 16  # different jobs offer different blocks
    assert all(0.0 <= draw < 1.0 for draw in draws)


def test_context_budget_caps_offers():
    context = AdaptiveJobContext(offer_rate=1.0, budget=2)
    granted = [context.offers(block_id, "f1") for block_id in range(10)]
    assert sum(granted) == 2
    context.begin_run()
    assert sum(context.offers(block_id, "f1") for block_id in range(10)) == 2


def test_zero_offer_rate_never_builds():
    system = _system(adaptive_offer_rate=0.0)
    for round_number in range(3):
        result = system.run_query(_query(f"q{round_number}"), _PATH)
        assert result.job.counters.value(Counters.ADAPTIVE_INDEX_BUILDS) == 0
    assert system.adaptive_replica_count(_PATH) == 0


def test_budget_per_job_limits_builds_per_query():
    """Builds per job are unlimited unless the auto-tuner has sized a budget; then it binds."""
    system = _system(adaptive_auto_tune=True)
    assert system.lifecycle.tuner.budget is None
    system.lifecycle.tuner.budget = 2
    result = system.run_query(_query(), _PATH)
    assert result.job.counters.value(Counters.ADAPTIVE_INDEX_BUILDS) == 2
    assert result.job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED) == 2
    assert system.adaptive_replica_count(_PATH) == 2


# --------------------------------------------------------------------------- the feedback loop
def test_full_scans_pay_forward_and_upgrade_to_index_scans():
    system = _system()
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))

    first = system.run_query(_query("q0"), _PATH)
    assert first.plan.summary()["adaptive_index_builds"] == num_blocks
    assert first.job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED) == num_blocks
    assert "+build(f1)" in first.explain()
    assert system.index_coverage(_PATH, "f1") == pytest.approx(1.0)

    second = system.run_query(_query("q1"), _PATH)
    assert second.plan.summary()["index_scans"] == num_blocks
    assert second.plan.summary()["adaptive_index_builds"] == 0
    assert second.record_reader_s < first.record_reader_s
    assert second.sorted_records() == first.sorted_records()


def test_adaptive_build_charges_incremental_cost():
    """The paying-forward round is slower than a plain scan round of the same deployment."""
    adaptive = _system()
    plain = _system(adaptive_offer_rate=0.0)
    paying = adaptive.run_query(_query(), _PATH)
    scanning = plain.run_query(_query(), _PATH)
    assert paying.record_reader_s > scanning.record_reader_s
    for block_plan in paying.plan.block_plans:
        assert block_plan.builds_index
        assert block_plan.build_seconds > 0.0
        assert block_plan.build_attribute == "f1"


def test_adaptive_replicas_register_their_origin():
    system = _system()
    system.run_query(_query(), _PATH)
    namenode = system.hdfs.namenode
    origins = set()
    for block_id in namenode.file_blocks(_PATH):
        for datanode_id in namenode.block_datanodes(block_id, alive_only=False):
            info = namenode.replica_info(block_id, datanode_id)
            if info is not None:
                origins.add(info.origin)
                assert info.describe()["origin"] in ("upload", "adaptive")
    assert "adaptive" in origins


def test_scan_jobs_without_predicate_never_build():
    system = _system()
    scan_query = Query(name="scan", predicate=None, projection=None, description="")
    result = system.run_query(scan_query, _PATH)
    assert result.job.counters.value(Counters.ADAPTIVE_INDEX_BUILDS) == 0
    assert all(
        plan.access_path is AccessPath.FULL_SCAN for plan in result.plan.block_plans
    )


def test_adaptive_build_preserves_row_layout_ablation():
    """Adaptive replicas inherit the source layout (no silent PAX conversion under the
    "no PAX conversion" ablation)."""
    config = HailConfig(
        index_attributes=(),
        functional_partition_size=1,
        splitting_policy=False,
        convert_to_pax=False,
        adaptive_indexing=True,
    )
    system = HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=_cost())
    records = SyntheticGenerator(seed=3).generate(400)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)
    system.run_query(_query(), _PATH)

    namenode = system.hdfs.namenode
    checked = 0
    for block_id in namenode.file_blocks(_PATH):
        for datanode_id in namenode.block_datanodes(block_id, alive_only=False):
            info = namenode.replica_info(block_id, datanode_id)
            if info is None or not info.is_adaptive:
                continue
            assert info.pax_layout is False
            replica = system.hdfs.datanode(datanode_id).replica(block_id)
            assert replica.payload.pax_layout is False
            checked += 1
    assert checked > 0


def test_adaptive_build_never_evicts_an_upload_time_index():
    """Building an f2 index must not replace a block's only f1-indexed replica (regression).

    Commit placement prefers the executing node, but when that node's replica slot holds an
    index on another attribute the adaptive replica lands on a different host — coverage of
    the upload-time attribute stays at 1.0 while the new attribute converges.
    """
    config = HailConfig(
        index_attributes=("f1",),
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        adaptive_offer_rate=1.0,
    )
    system = HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=_cost())
    records = SyntheticGenerator(seed=3).generate(800)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)
    assert system.index_coverage(_PATH, "f1") == pytest.approx(1.0)

    f2_query = Query(
        name="f2",
        predicate=Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 10),
        projection=("f2",),
        description="",
    )
    for round_number in range(3):
        system.run_query(f2_query, _PATH)
        assert system.index_coverage(_PATH, "f1") == pytest.approx(1.0), (
            f"round {round_number} evicted an upload-time f1 index"
        )
    assert system.index_coverage(_PATH, "f2") == pytest.approx(1.0)

    # Both attributes now answer with index scans.
    f1_result = system.run_query(_query("f1-check"), _PATH)
    f2_result = system.run_query(f2_query, _PATH)
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    assert f1_result.plan.summary()["index_scans"] == num_blocks
    assert f2_result.plan.summary()["index_scans"] == num_blocks


def test_an_offer_no_node_could_take_is_refunded():
    """One node at replication 1, its only replica indexed on ``b``: no alive node could take
    an adaptive ``a`` replica (the commit would drop the build as ``skipped_no_placement``), so
    the planner refunds the offer instead of sorting the block and charging its build.  Each
    query then runs exactly as on the same deployment without adaptive indexing."""
    schema = Schema.of(("a", FieldType.INT), ("b", FieldType.INT), name="ab")
    records = [(row * 37 % 100, row) for row in range(200)]

    def deploy(adaptive: bool) -> HailSystem:
        config = HailConfig(
            index_attributes=("b",),
            replication=1,
            functional_partition_size=1,
            adaptive_indexing=adaptive,
            adaptive_offer_rate=1.0,
        )
        system = HailSystem(Cluster.homogeneous(1, seed=7), config=config, cost=_cost())
        system.upload("/ab", records, schema, rows_per_block=50)
        return system

    adaptive, plain = deploy(True), deploy(False)
    query = Query(
        name="a", predicate=Predicate.comparison("a", Operator.LT, 10), projection=("a",),
        description="",
    )
    for _ in range(3):
        result = adaptive.run_query(query, "/ab")
        baseline = plain.run_query(query, "/ab")
        assert result.job.counters.value(Counters.ADAPTIVE_INDEX_BUILDS) == 0
        assert result.plan.summary()["adaptive_index_builds"] == 0
        assert result.runtime_s == baseline.runtime_s
        assert sorted(result.records) == sorted(baseline.records)
    assert adaptive.adaptive_replica_count("/ab") == 0


# --------------------------------------------------------------------------- commit semantics
@dataclass
class _FakeResult:
    adaptive_builds: list = field(default_factory=list)


@dataclass
class _FakeAttempt:
    result: _FakeResult


def test_commit_deduplicates_speculative_builds():
    """Two surviving attempts that staged the same (block, attribute) commit exactly once."""
    system = _system(adaptive_offer_rate=0.0)  # deployment only; no organic builds
    hdfs = system.hdfs
    block_id = hdfs.namenode.file_blocks(_PATH)[0]

    from repro.engine.adaptive import AdaptiveJobContext as Context
    from repro.engine.executor import VectorizedExecutor
    from repro.engine.planner import BoundQuery, PhysicalPlanner
    from repro.query.annotation import HailQuery

    annotation = HailQuery(filter=_query().predicate, projection=("f1",))
    bound = BoundQuery.bind(annotation, system.schema_of(_PATH))
    builds = []
    for node_id in (0, 1):  # two speculative attempts on different nodes
        planner = PhysicalPlanner(hdfs)
        plan = planner.for_execution(
            planner.plan_block(block_id, bound), bound, Context(offer_rate=1.0)
        )
        scan = VectorizedExecutor(hdfs, system.cost, node_id).execute(plan, bound)
        assert scan.pending_build is not None
        builds.append(scan.pending_build)

    report = commit_adaptive_builds(
        hdfs, [_FakeAttempt(_FakeResult([build])) for build in builds]
    )
    assert len(report.committed) == 1
    assert report.skipped_duplicate + report.skipped_already_indexed == 1
    assert len(hdfs.namenode.hosts_with_index(block_id, "f1")) == 1


def test_commit_skips_builds_targeting_dead_nodes():
    system = _system(adaptive_offer_rate=0.0)
    hdfs = system.hdfs
    block_id = hdfs.namenode.file_blocks(_PATH)[0]

    from repro.engine.adaptive import AdaptiveJobContext as Context
    from repro.engine.executor import VectorizedExecutor
    from repro.engine.planner import BoundQuery, PhysicalPlanner
    from repro.query.annotation import HailQuery

    annotation = HailQuery(filter=_query().predicate, projection=("f1",))
    bound = BoundQuery.bind(annotation, system.schema_of(_PATH))
    planner = PhysicalPlanner(hdfs)
    plan = planner.for_execution(
        planner.plan_block(block_id, bound), bound, Context(offer_rate=1.0)
    )
    scan = VectorizedExecutor(hdfs, system.cost, 0).execute(plan, bound)
    system.cluster.kill_node(0)
    try:
        report = commit_adaptive_builds(
            hdfs, [_FakeAttempt(_FakeResult([scan.pending_build]))]
        )
        assert report.committed == []
        assert report.skipped_dead_node == 1
        assert hdfs.namenode.hosts_with_index(block_id, "f1", alive_only=False) == []
    finally:
        system.cluster.node(0).revive()
