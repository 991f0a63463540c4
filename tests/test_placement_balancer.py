"""Placement layer tests: scheduling tiers, balancer invariants, per-attribute tuner ledgers.

The balancer invariants pinned here are the ones the operator documentation promises
(`docs/scheduling.md`): placements never lift a node past the disk budget's low watermark,
no block ever loses its last alive replica, and repeated passes over a fixed workload
converge — the balancer goes quiet instead of oscillating against the evictor.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.lifecycle import (
    AdaptiveLifecycleManager,
    AdaptiveTuner,
    JobObservation,
    PlacementBalancer,
    evict_under_pressure,
)
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.hail.scheduler import (
    adaptive_placement_by_node,
    check_dir_rep_consistency,
    index_local_task_fraction,
)
from repro.mapreduce.counters import Counters
from repro.workloads.query import Query

_PATH = "/placement/synthetic"


def _cost(data_scale: float = 5000.0) -> CostModel:
    return CostModel(CostParameters(enable_variance=False, data_scale=data_scale))


def _system(num_records: int = 1600, num_nodes: int = 4, **config_overrides) -> HailSystem:
    config = HailConfig(
        index_attributes=(),
        replication=3,
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        **config_overrides,
    )
    system = HailSystem(
        Cluster.homogeneous(num_nodes, seed=7), config=config, cost=_cost()
    )
    records = SyntheticGenerator(seed=3).generate(num_records)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)
    return system


def _query(attribute: str = "f1") -> Query:
    return Query(
        name=f"q-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=tuple(SYNTHETIC_SCHEMA.field_names[:9]),
        description="",
    )


def _alive_replica_counts(system: HailSystem) -> dict[int, int]:
    namenode = system.hdfs.namenode
    return {
        block_id: len(namenode.block_datanodes(block_id, alive_only=True))
        for block_id in namenode.file_blocks(_PATH)
    }


# --------------------------------------------------------------------------- scheduling tiers
def test_scheduling_counters_absent_without_the_policy():
    system = _system(num_records=800)
    result = system.run_query(_query(), _PATH)
    counters = result.job.counters
    for name in (Counters.SCHED_INDEX_LOCAL, Counters.SCHED_PLAIN_LOCAL, Counters.SCHED_REMOTE):
        assert counters.value(name) == 0
    assert index_local_task_fraction(counters) == 0.0


def test_scheduling_tiers_partition_all_launched_tasks():
    system = _system(num_records=800, index_aware_scheduling=True)
    for _ in range(3):
        result = system.run_query(_query(), _PATH)
    counters = result.job.counters
    classified = (
        counters.value(Counters.SCHED_INDEX_LOCAL)
        + counters.value(Counters.SCHED_PLAIN_LOCAL)
        + counters.value(Counters.SCHED_REMOTE)
    )
    assert classified == counters.value(Counters.LAUNCHED_MAP_TASKS) > 0
    # Converged deployment, every block indexed somewhere: the fraction is (near) perfect.
    assert index_local_task_fraction(counters) >= 0.9
    assert system.index_coverage(_PATH, "f1") == 1.0


# --------------------------------------------------------------------------- re-replication
def _converge_and_disrupt(system: HailSystem) -> float:
    """Converge on f1, kill the heaviest node, storm-evict survivors; freeze scan builds."""
    for _ in range(3):
        system.run_query(_query(), _PATH)
    footprints = system.hdfs.namenode.adaptive_bytes_by_node()
    victim = max(sorted(footprints), key=lambda node_id: footprints[node_id])
    system.cluster.kill_node(victim)
    storm = DiskPressurePolicy(
        capacity_bytes=max(footprints.values()) * 0.4, high_watermark=0.5, low_watermark=0.4
    )
    evict_under_pressure(system.hdfs, storm)
    system.config = dataclasses.replace(system.config, adaptive_offer_rate=0.0)
    return system.index_coverage(_PATH, "f1")


def test_balancer_rereplicates_lost_coverage_without_scan_builds():
    system = _system(
        index_aware_scheduling=True,
        placement_balancer=True,
        placement_rebuilds_per_job=4,
    )
    degraded = _converge_and_disrupt(system)
    assert degraded < 1.0
    for _ in range(8):
        result = system.run_query(_query(), _PATH)
    assert system.index_coverage(_PATH, "f1") == 1.0
    assert result.job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED) == 0  # no scan builds
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []
    assert all(count >= 1 for count in _alive_replica_counts(system).values())
    kinds = [action.kind for report in system.lifecycle.reports for action in report.actions]
    assert kinds.count("rebuild") > 0


def test_balancer_without_demand_rebuilds_nothing():
    system = _system(placement_balancer=True)
    for _ in range(2):
        system.run_query(_query(), _PATH)
    balancer = system.lifecycle.balancer
    balancer.demand.clear()
    # Coverage holes exist (kill a node), but no demanded attribute: nothing to repair.
    system.cluster.kill_node(0)
    assert balancer.run(system.hdfs) == []


def test_balancer_respects_the_disk_budget_low_watermark():
    system = _system(
        placement_balancer=True,
        placement_rebuilds_per_job=8,
    )
    _converge_and_disrupt(system)
    # A budget so tight that full re-replication would blow past it: the balancer must stop
    # at the low watermark instead of restoring every replica.
    footprints = system.hdfs.namenode.adaptive_bytes_by_node()
    per_replica = max(footprints.values()) / max(1, len(footprints))
    capacity = max(footprints.values()) + 0.5 * per_replica
    tight = DiskPressurePolicy(capacity_bytes=capacity, high_watermark=0.95, low_watermark=0.9)
    balancer = PlacementBalancer(pressure=tight, rebuilds_per_pass=8)
    balancer.demand["f1"] = 8
    for _ in range(6):
        balancer.run(system.hdfs)
    for node_id, used in system.hdfs.namenode.adaptive_bytes_by_node().items():
        assert used <= tight.low_watermark * tight.capacity_bytes + 1e-9, node_id
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []


# --------------------------------------------------------------------------- skew repair
def _skewed_system() -> HailSystem:
    """Converge with one node dead, then revive it: its adaptive footprint is zero."""
    system = _system(num_records=3200, placement_balancer=False)
    system.cluster.kill_node(0)
    for _ in range(3):
        system.run_query(_query(), _PATH)
    system.cluster.node(0).revive()
    return system


def test_migration_reduces_byte_skew_and_converges():
    system = _skewed_system()
    before = {
        node_id: entry["bytes"] for node_id, entry in adaptive_placement_by_node(system.hdfs).items()
    }
    assert before[0] == 0 and max(before.values()) > 0
    replicas_before = _alive_replica_counts(system)

    balancer = PlacementBalancer(skew_high=1.2, skew_low=1.05, migrations_per_pass=4)
    actions = ["warmup"]
    passes = 0
    while actions and passes < 20:
        actions = balancer.run(system.hdfs)
        passes += 1
        assert check_dir_rep_consistency(system.hdfs, _PATH) == []
    assert not actions, "balancer did not converge within 20 passes"

    after = {
        node_id: entry["bytes"] for node_id, entry in adaptive_placement_by_node(system.hdfs).items()
    }
    # Skew strictly improved, the revived node got replicas, and no data was lost.
    assert max(after.values()) < max(before.values())
    assert after[0] > 0
    assert _alive_replica_counts(system) == replicas_before
    assert sum(after.values()) == sum(before.values())

    # Quiescence is stable: further passes perform no work (no oscillation).
    for _ in range(3):
        assert balancer.run(system.hdfs) == []


def test_migration_requires_strict_improvement():
    # Two nodes, one replica: moving it would just move the hotspot, so nothing may happen.
    system = _system(num_records=200, num_nodes=4)
    for _ in range(2):
        system.run_query(_query(), _PATH)
    stats = adaptive_placement_by_node(system.hdfs)
    balancer = PlacementBalancer(skew_high=1.0, skew_low=1.0, migrations_per_pass=8)
    balancer.run(system.hdfs)
    # Whatever happened, re-running from the reached state is a no-op fixpoint.
    settled = adaptive_placement_by_node(system.hdfs)
    assert balancer.run(system.hdfs) == []
    assert adaptive_placement_by_node(system.hdfs) == settled


# --------------------------------------------------------------------------- per-attribute tuner
def _attr_observation(attribute: str, saving: bool) -> JobObservation:
    if saving:
        return JobObservation(
            builds_committed=1,
            build_seconds=1.0,
            adaptive_uses=2,
            saved_seconds=5.0,
            builds_by_attribute={attribute: 1},
            build_seconds_by_attribute={attribute: 1.0},
            uses_by_attribute={attribute: 2},
            saved_seconds_by_attribute={attribute: 5.0},
        )
    return JobObservation(
        fallback_blocks=2, fallbacks_by_attribute={attribute: 2}
    )


def test_per_attribute_ledgers_diverge():
    tuner = AdaptiveTuner(offer_rate=0.4, per_attribute=True)
    for _ in range(4):
        # "a" keeps saving; "b" went idle after the workload shifted away from it.
        tuner.observe(_attr_observation("a", saving=True))
    rates = tuner.attribute_rates()
    assert rates["a"] > 0.4
    tuner.ledgers["b"] = type(tuner.ledgers["a"])(offer_rate=0.4)
    for _ in range(6):
        tuner.observe(_attr_observation("a", saving=True))
    rates = tuner.attribute_rates()
    assert rates["a"] == 1.0
    assert rates["b"] == 0.0  # idle decay snapped the abandoned attribute to zero


def test_per_attribute_tuning_leaves_the_global_law_unchanged():
    observations = [
        _attr_observation("a", saving=True),
        _attr_observation("b", saving=False),
        JobObservation(),  # fully idle job
        _attr_observation("a", saving=True),
    ]
    flat = AdaptiveTuner(offer_rate=0.3)
    split = AdaptiveTuner(offer_rate=0.3, per_attribute=True)
    for observation in observations:
        flat.observe(observation)
        split.observe(observation)
    assert split.offer_rate == flat.offer_rate
    assert split.budget == flat.budget
    assert flat.attribute_rates() == {}


def test_per_attribute_rates_reach_the_offer_policy():
    system = _system(
        adaptive_offer_rate=0.5,
        adaptive_auto_tune=True,
        adaptive_per_attribute_tune=True,
    )
    for _ in range(3):
        system.run_query(_query("f1"), _PATH)
    rates = system.lifecycle.tuner.attribute_rates()
    assert "f1" in rates
    # The f1 ledger saw savings and out-raised the starting rate.
    assert rates["f1"] > 0.5
    # The next job's context carries the per-attribute snapshot.
    jobconf = system._scan_jobconf(_query("f1"), _PATH)
    from repro.engine.adaptive import ADAPTIVE_PROPERTY

    assert jobconf.properties[ADAPTIVE_PROPERTY].attribute_offer_rates == rates


# --------------------------------------------------------------------------- session surface
def test_session_stats_surface_scheduling_and_tuner_ledgers():
    from repro.api import Session, col

    config = (
        HailConfig(functional_partition_size=1, splitting_policy=False)
        .with_adaptive(True, offer_rate=0.5)
        .with_lifecycle(auto_tune=True, per_attribute_tune=True)
        .with_placement(scheduling=True, balancer=True)
    )
    session = Session.deploy(nodes=4, systems=("HAIL",), hail_config=config)
    generator = SyntheticGenerator(seed=3)
    data = session.upload(_PATH, generator.generate(800), SYNTHETIC_SCHEMA, rows_per_block=100)
    query = data.where(col("f1") < VALUE_RANGE // 10).select("f1", "f2", "f3")
    session.run_batch([query, query, query])
    stats = session.stats()
    assert stats.sched_index_local + stats.sched_plain_local + stats.sched_remote == int(
        stats.counter(Counters.LAUNCHED_MAP_TASKS)
    )
    assert 0.0 < stats.index_local_task_fraction <= 1.0
    assert stats.tuner_attribute_rates is not None and "f1" in stats.tuner_attribute_rates
    assert stats.counter_by_attribute(Counters.ADAPTIVE_INDEXES_COMMITTED).get("f1", 0) > 0
    # No disruption happened, so the balancer had nothing to repair.
    assert stats.placement_rebuilds == 0 and stats.placement_migrations == 0


# --------------------------------------------------------------------------- config + manager
def test_config_validates_placement_knobs():
    with pytest.raises(ValueError):
        PlacementBalancer(skew_high=1.2, skew_low=1.5)  # the balancer owns the skew rule
    with pytest.raises(ValueError):
        PlacementBalancer(skew_low=0.5)
    with pytest.raises(ValueError):
        HailConfig(placement_rebuilds_per_job=-1)
    with pytest.raises(ValueError):
        HailConfig(adaptive_per_attribute_tune=True)  # requires auto_tune
    config = (
        HailConfig()
        .with_adaptive(True)
        .with_lifecycle(auto_tune=True, per_attribute_tune=True)
        .with_placement(scheduling=True, balancer=True)
    )
    assert config.index_aware_scheduling and config.placement_balancer
    assert config.adaptive_per_attribute_tune


def test_manager_created_for_balancer_alone():
    config = HailConfig().with_adaptive(True).with_placement(balancer=True)
    manager = AdaptiveLifecycleManager.from_config(config)
    assert manager is not None
    assert manager.balancer is not None and manager.tuner is None
    assert AdaptiveLifecycleManager.from_config(HailConfig().with_adaptive(True)) is None


def test_lifecycle_report_placement_accounting():
    system = _system(
        index_aware_scheduling=True, placement_balancer=True, placement_rebuilds_per_job=4
    )
    _converge_and_disrupt(system)
    result = system.run_query(_query(), _PATH)
    report = system.lifecycle.reports[-1]
    rebuilt = sum(action.kind == "rebuild" for action in report.actions)
    bytes_moved = sum(action.bytes for action in report.actions)
    assert rebuilt > 0
    assert bytes_moved > 0
    for action in report.actions:
        assert action.kind in ("rebuild", "migrate")
        assert action.seconds > 0  # the runner passed its cost model for pricing
    counters = result.job.counters
    assert counters.value(Counters.PLACEMENT_REREPLICATED) == rebuilt
    assert counters.value(Counters.PLACEMENT_BYTES_MOVED) == pytest.approx(bytes_moved)
