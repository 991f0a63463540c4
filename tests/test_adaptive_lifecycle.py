"""Lifecycle tests: eviction invariants, the knob tuner, and multi-attribute convergence."""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.lifecycle import (
    AdaptiveLifecycleManager,
    AdaptiveTuner,
    JobObservation,
    evict_under_pressure,
)
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.hail.scheduler import check_dir_rep_consistency
from repro.mapreduce.counters import Counters
from repro.workloads.query import Query

_PATH = "/lifecycle/synthetic"


def _cost(data_scale: float = 5000.0) -> CostModel:
    return CostModel(CostParameters(enable_variance=False, data_scale=data_scale))


def _system(
    index_attributes: tuple[str, ...] = (),
    num_nodes: int = 4,
    replication: int = 3,
    data_scale: float = 5000.0,
    **adaptive_overrides,
) -> HailSystem:
    config = HailConfig(
        index_attributes=index_attributes,
        replication=replication,
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        **adaptive_overrides,
    )
    system = HailSystem(
        Cluster.homogeneous(num_nodes, seed=7), config=config, cost=_cost(data_scale)
    )
    records = SyntheticGenerator(seed=3).generate(800)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)
    return system


def _query(attribute: str, name: str = "", wide: bool = True) -> Query:
    projection = tuple(SYNTHETIC_SCHEMA.field_names[:9]) if wide else (attribute,)
    return Query(
        name=name or f"q-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=projection,
        description="",
    )


def _converge(system: HailSystem, attribute: str, rounds: int = 2) -> None:
    for round_number in range(rounds):
        system.run_query(_query(attribute, f"conv-{attribute}-{round_number}"), _PATH)


# --------------------------------------------------------------------------- pressure policy
def test_disk_pressure_policy_watermarks():
    policy = DiskPressurePolicy(capacity_bytes=1000.0, high_watermark=0.9, low_watermark=0.6)
    assert policy.enabled
    assert not policy.under_pressure(900.0)
    assert policy.under_pressure(901.0)
    assert policy.bytes_to_free(901.0) == pytest.approx(301.0)
    assert policy.bytes_to_free(500.0) == 0.0


def test_disk_pressure_policy_disabled_and_validation():
    disabled = DiskPressurePolicy()
    assert not disabled.enabled
    assert not disabled.under_pressure(10.0**12)
    assert disabled.bytes_to_free(10.0**12) == 0.0
    with pytest.raises(ValueError):
        DiskPressurePolicy(capacity_bytes=-1.0)
    with pytest.raises(ValueError):
        DiskPressurePolicy(capacity_bytes=10.0, high_watermark=0.5, low_watermark=0.8)


def test_config_validates_lifecycle_knobs():
    with pytest.raises(ValueError):
        HailConfig(disk_pressure=DiskPressurePolicy(capacity_bytes=0))
    with pytest.raises(ValueError):
        HailConfig().with_lifecycle(low_watermark=0.9, high_watermark=0.5)
    config = HailConfig().with_adaptive(True).with_lifecycle(
        eviction=True, capacity_bytes=4096.0, auto_tune=True, multi_attribute=True
    )
    assert config.adaptive_eviction and config.adaptive_auto_tune
    assert config.adaptive_multi_attribute
    assert config.disk_pressure.capacity_bytes == 4096.0


def test_lifecycle_manager_only_created_when_asked():
    assert AdaptiveLifecycleManager.from_config(HailConfig()) is None
    assert AdaptiveLifecycleManager.from_config(HailConfig().with_adaptive(True)) is None
    manager = AdaptiveLifecycleManager.from_config(
        HailConfig().with_adaptive(True).with_lifecycle(auto_tune=True)
    )
    assert manager is not None and manager.tuner is not None


# --------------------------------------------------------------------------- the tuner (units)
def _obs(**kwargs) -> JobObservation:
    return JobObservation(**kwargs)


def test_tuner_raises_offer_rate_when_savings_exceed_build_cost():
    tuner = AdaptiveTuner(offer_rate=0.2)
    tuner.observe(
        _obs(builds_committed=1, build_seconds=1.0, adaptive_uses=4, saved_seconds=3.0,
             fallback_blocks=2, record_reader_seconds=10.0)
    )
    assert tuner.offer_rate == pytest.approx(0.3)
    for _ in range(6):
        tuner.observe(
            _obs(adaptive_uses=8, saved_seconds=5.0, record_reader_seconds=10.0)
        )
    assert tuner.offer_rate == 1.0  # capped


def test_tuner_decays_to_zero_when_workload_is_fully_covered():
    tuner = AdaptiveTuner(offer_rate=0.8)
    for _ in range(10):
        tuner.observe(_obs(record_reader_seconds=5.0))  # no builds, no uses, no fallbacks
    assert tuner.offer_rate == 0.0


def test_tuner_decays_when_builds_never_pay_back():
    tuner = AdaptiveTuner(offer_rate=0.8)
    for _ in range(8):
        tuner.observe(
            _obs(builds_committed=2, build_seconds=2.0, fallback_blocks=6,
                 record_reader_seconds=10.0)
        )
    assert tuner.offer_rate < 0.8
    for _ in range(8):
        tuner.observe(
            _obs(builds_committed=1, build_seconds=1.0, fallback_blocks=6,
                 record_reader_seconds=10.0)
        )
    assert tuner.offer_rate == 0.0


def test_tuner_probes_again_when_fallbacks_reappear():
    tuner = AdaptiveTuner(offer_rate=0.8)
    for _ in range(10):
        tuner.observe(_obs(record_reader_seconds=5.0))
    assert tuner.offer_rate == 0.0
    # The workload shifts: scans reappear, and the ledger carries no unpaid debt.
    tuner.observe(_obs(fallback_blocks=4, record_reader_seconds=5.0))
    assert tuner.offer_rate == pytest.approx(tuner.min_offer_rate)


def test_tuner_zero_rate_with_unpaid_ledger_is_not_an_absorbing_state():
    # Builds never paid back, the rate decayed to zero, and the frozen ledger stays unpaid
    # (no builds can run at rate 0).  After probe_cooldown build-free jobs with fallbacks,
    # the controller must probe again anyway — the debt is stale, not evidence.
    tuner = AdaptiveTuner(offer_rate=0.8)
    for _ in range(16):
        tuner.observe(
            _obs(builds_committed=2, build_seconds=4.0, fallback_blocks=6,
                 record_reader_seconds=10.0)
        )
    assert tuner.offer_rate == 0.0
    assert not tuner._paid_back(tuner)
    for _ in range(tuner.probe_cooldown):
        tuner.observe(_obs(fallback_blocks=6, record_reader_seconds=10.0))
    assert tuner.offer_rate == pytest.approx(tuner.min_offer_rate)


def test_tuner_forgets_stale_credit_after_a_hostile_shift():
    # A long profitable history must not bankroll a hostile shift forever: the payback
    # ledger is a decayed window, so unpaid builds start decaying the rate within a
    # bounded number of jobs, and the rate reaches zero.
    tuner = AdaptiveTuner(offer_rate=0.5)
    for _ in range(50):
        tuner.observe(
            _obs(builds_committed=1, build_seconds=1.0, adaptive_uses=8,
                 saved_seconds=10.0, record_reader_seconds=20.0)
        )
    assert tuner.offer_rate == 1.0
    for _ in range(40):  # never-repeated predicates: builds commit, savings never come
        tuner.observe(
            _obs(builds_committed=2, build_seconds=2.0, fallback_blocks=8,
                 record_reader_seconds=20.0)
        )
    assert tuner.offer_rate == 0.0


def test_tuner_sizes_budget_from_cost_and_useful_work():
    tuner = AdaptiveTuner(offer_rate=0.5, overhead_fraction=0.25)
    assert tuner.budget is None  # unlimited until the first build is observed
    tuner.observe(
        _obs(builds_committed=4, build_seconds=4.0, fallback_blocks=8,
             record_reader_seconds=40.0)
    )
    assert tuner.budget == 10  # 0.25 * 40s of useful work / 1s per build
    for _ in range(12):
        tuner.observe(
            _obs(adaptive_uses=4, saved_seconds=2.0, record_reader_seconds=4.0)
        )
    assert 1 <= tuner.budget < 10  # shrinks as jobs get cheaper


# --------------------------------------------------------------------------- tuner integration
def test_auto_tune_raises_offer_rate_on_a_convergent_workload():
    system = _system(adaptive_auto_tune=True, adaptive_offer_rate=0.5)
    for round_number in range(4):
        system.run_query(_query("f1", f"rise-{round_number}"), _PATH)
    tuner = system.lifecycle.tuner
    assert tuner.offer_rate > 0.5
    assert tuner.budget is not None and tuner.budget >= 1


def test_auto_tune_decays_to_zero_on_index_hostile_workload():
    # Uniform random predicates over an attribute that upload-time indexes already cover:
    # nothing falls back, nothing is built, adaptivity is useless — the offer rate must die.
    system = _system(index_attributes=("f1",), adaptive_auto_tune=True, adaptive_offer_rate=0.5)
    rng = random.Random(1)
    for round_number in range(8):
        query = Query(
            name=f"hostile-{round_number}",
            predicate=Predicate.comparison("f1", Operator.LT, rng.randrange(VALUE_RANGE)),
            projection=("f1",),
            description="",
        )
        result = system.run_query(query, _PATH)
        assert result.job.counters.value(Counters.ADAPTIVE_INDEX_BUILDS) == 0
    assert system.lifecycle.tuner.offer_rate == 0.0


# --------------------------------------------------------------------------- eviction invariants
def _evict_all_pressure(system: HailSystem) -> list:
    """Eviction pass under extreme pressure (a tiny per-node budget)."""
    policy = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
    return evict_under_pressure(system.hdfs, policy)


def test_upload_time_indexes_are_never_evicted():
    system = _system(index_attributes=("f1",))
    _converge(system, "f3")  # adaptive f3 replicas next to the upload-time f1 indexes
    assert system.adaptive_replica_count(_PATH) > 0
    evicted = _evict_all_pressure(system)
    assert evicted, "extreme pressure must evict the adaptive replicas"
    assert all(record.attribute == "f3" for record in evicted)
    # Every upload-time index survived: full f1 coverage, zero adaptive replicas left.
    assert system.index_coverage(_PATH, "f1") == pytest.approx(1.0)
    assert system.adaptive_replica_count(_PATH) == 0
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []


def test_eviction_is_failure_safe_no_half_removed_entries():
    system = _system()
    _converge(system, "f1")
    evicted = _evict_all_pressure(system)
    assert evicted
    namenode = system.hdfs.namenode
    for record in evicted:
        info = namenode.replica_info(record.block_id, record.datanode_id)
        stored = system.hdfs.datanode(record.datanode_id).has_replica(record.block_id)
        if record.kind == "downgrade":
            # The index is gone but the displaced copy survives as a plain replica:
            # Dir_rep says unindexed, the replica is stored, Dir_block keeps the node.
            assert info is not None and info.indexed_attribute is None
            assert info.origin == "evicted" and not info.is_adaptive
            assert stored
            assert record.datanode_id in namenode.block_datanodes(
                record.block_id, alive_only=False
            )
        else:
            # An extra copy was deleted outright: all three structures dropped it together.
            assert info is None and not stored
            assert record.datanode_id not in namenode.block_datanodes(
                record.block_id, alive_only=False
            )
        # The tombstone names the evicting node for the planner's fallback wording.
        assert namenode.index_eviction(record.block_id, record.attribute) == record.datanode_id
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []


def test_eviction_downgrades_displaced_replicas_and_keeps_replication():
    # Replication 1: after the adaptive rebuild each block's *only* replica is adaptive
    # (the build displaced the plain copy).  Eviction must reclaim the indexes without
    # losing any block's data.
    system = _system(num_nodes=2, replication=1)
    _converge(system, "f1")
    assert system.adaptive_replica_count(_PATH) > 0
    evicted = _evict_all_pressure(system)
    assert evicted and all(record.kind == "downgrade" for record in evicted)
    assert system.adaptive_replica_count(_PATH) == 0
    namenode = system.hdfs.namenode
    for block_id in namenode.file_blocks(_PATH):
        assert namenode.block_datanodes(block_id, alive_only=True)
    # The data is still fully queryable through the downgraded (plain) replicas.
    reference = _system(num_nodes=2, replication=1)
    expected = reference.run_query(_query("f1", "ref", wide=False), _PATH).sorted_records()
    del reference
    result = system.run_query(_query("f1", "after", wide=False), _PATH)
    assert result.sorted_records() == expected


def test_eviction_never_deletes_a_blocks_last_alive_replica():
    from dataclasses import replace as dc_replace

    system = _system(num_nodes=2, replication=2, adaptive_budget_per_job=None)
    _converge(system, "f1")
    namenode = system.hdfs.namenode
    # Pick one adaptive replica and pretend it was placed as an extra copy (not displaced),
    # then kill every other node hosting the block: the delete path must refuse.
    block_id, victim_node = next(
        (block_id, datanode_id)
        for block_id in namenode.file_blocks(_PATH)
        for datanode_id, info in namenode.replica_infos(block_id).items()
        if info.is_adaptive
    )
    info = namenode.replica_info(block_id, victim_node)
    namenode.register_replica_info(
        block_id, victim_node, dc_replace(info, displaced_plain_replica=False)
    )
    for datanode_id in namenode.block_datanodes(block_id, alive_only=True):
        if datanode_id != victim_node:
            system.cluster.node(datanode_id).kill()
    _evict_all_pressure(system)
    surviving = namenode.replica_info(block_id, victim_node)
    assert surviving is not None and surviving.is_adaptive  # skipped: last alive replica
    assert namenode.block_datanodes(block_id, alive_only=True) == [victim_node]


def test_evicted_index_is_adaptively_rebuilt():
    system = _system()
    _converge(system, "f1")
    assert system.index_coverage(_PATH, "f1") == pytest.approx(1.0)
    evicted = _evict_all_pressure(system)
    assert evicted
    assert system.index_coverage(_PATH, "f1") < 1.0

    # The very next query on f1 pays forward again and restores coverage.
    _converge(system, "f1")
    assert system.index_coverage(_PATH, "f1") == pytest.approx(1.0)
    namenode = system.hdfs.namenode
    for record in evicted:
        assert namenode.index_eviction(record.block_id, record.attribute) is None
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []


def test_eviction_is_least_recently_used_first():
    system = _system()
    _converge(system, "f1")
    _converge(system, "f3")
    system.run_query(_query("f3", "touch-f3"), _PATH)  # f3 is hot, f1 is cold

    namenode = system.hdfs.namenode
    footprints = [
        namenode.adaptive_bytes_on(node.node_id) for node in system.cluster.nodes
    ]
    policy = DiskPressurePolicy(
        capacity_bytes=max(footprints), high_watermark=0.9, low_watermark=0.8
    )
    # Every adaptive replica's LRU tick before the pass (a downgrade resets the evicted one's).
    ticks = {
        (block_id, node.node_id): namenode.index_usage(block_id, node.node_id)[1]
        for node in system.cluster.nodes
        for block_id in system.hdfs.datanode(node.node_id).block_ids()
        if (info := namenode.replica_info(block_id, node.node_id)) is not None
        and info.is_adaptive
    }
    evicted = evict_under_pressure(system.hdfs, policy)
    assert evicted
    # LRU, node-locally: nothing evicted was more recently used than any survivor.
    for record in evicted:
        survivor_ticks = [
            ticks[block_id, record.datanode_id]
            for block_id in system.hdfs.datanode(record.datanode_id).block_ids()
            if (info := namenode.replica_info(block_id, record.datanode_id)) is not None
            and info.is_adaptive
        ]
        assert all(ticks[record.block_id, record.datanode_id] <= tick for tick in survivor_ticks)
    # The cold attribute is what pressure reclaims.
    assert any(record.attribute == "f1" for record in evicted)
    assert all(record.attribute == "f1" for record in evicted)


# --------------------------------------------------------------------------- fallback wording
def test_fallback_reason_distinguishes_evicted_from_lost():
    evicted_system = _system()
    _converge(evicted_system, "f1")
    records = _evict_all_pressure(evicted_system)
    assert records
    evicted_explain = evicted_system.explain(_query("f1", "probe"), _PATH)
    assert "evicted (disk pressure on dn" in evicted_explain
    assert "lost" not in evicted_explain

    lost_system = _system(index_attributes=("f1",), data_scale=100.0)
    victim = lost_system.hdfs.namenode.hosts_with_index(
        lost_system.hdfs.namenode.file_blocks(_PATH)[0], "f1"
    )[0]
    lost_system.cluster.node(victim).kill()
    lost_explain = lost_system.explain(_query("f1", "probe"), _PATH)
    assert f"lost (dn{victim} dead)" in lost_explain
    assert "evicted" not in lost_explain


# --------------------------------------------------------------------------- end-to-end eviction
def test_lifecycle_manager_enforces_node_budget_through_jobs():
    probe = _system()
    _converge(probe, "f1")
    budget = max(
        probe.hdfs.namenode.adaptive_bytes_on(node.node_id) for node in probe.cluster.nodes
    )
    system = _system(
        adaptive_eviction=True,
        disk_pressure=DiskPressurePolicy(
            capacity_bytes=budget * 1.2, high_watermark=0.9, low_watermark=0.75
        ),
    )
    for attribute in ("f1", "f3", "f1", "f3"):
        result = system.run_query(_query(attribute, f"shift-{attribute}"), _PATH)
        assert result.records is not None
        namenode = system.hdfs.namenode
        for node in system.cluster.nodes:
            assert namenode.adaptive_bytes_on(node.node_id) <= budget * 1.2
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []


# --------------------------------------------------------------------------- multi-attribute
def test_multi_attribute_piggybacks_a_build_on_the_uncovered_attribute():
    system = _system(index_attributes=("f1",), adaptive_multi_attribute=True)
    conjunction = Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 2).and_(
        Predicate.comparison("f3", Operator.LT, VALUE_RANGE // 2)
    )
    query = Query(name="conj", predicate=conjunction, projection=("f1", "f3"), description="")
    result = system.run_query(query, _PATH)
    # The block was answered via the f1 index *and* staged a build on f3; summary() counts
    # piggyback builds the same way describe() and the job counters do.
    assert result.plan.summary()["index_scans"] == result.plan.num_blocks
    assert result.plan.summary()["adaptive_index_builds"] == result.plan.num_blocks
    assert "+build(f3)" in result.explain()
    assert system.index_coverage(_PATH, "f3") == pytest.approx(1.0)

    # Mixed workload converged: a later f3-only query runs entirely on index scans.
    follow_up = system.run_query(_query("f3", "after"), _PATH)
    assert follow_up.plan.summary()["index_scans"] == follow_up.plan.num_blocks
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []


def test_multi_attribute_is_off_by_default():
    assert HailConfig().adaptive_multi_attribute is False
    system = _system(index_attributes=("f1",))
    conjunction = Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 2).and_(
        Predicate.comparison("f3", Operator.LT, VALUE_RANGE // 2)
    )
    query = Query(name="conj", predicate=conjunction, projection=("f1", "f3"), description="")
    result = system.run_query(query, _PATH)
    assert result.job.counters.value(Counters.ADAPTIVE_INDEX_BUILDS) == 0
    assert system.index_coverage(_PATH, "f3") == 0.0


def test_multi_attribute_results_match_plain_execution():
    plain = _system(index_attributes=("f1",))
    multi = _system(index_attributes=("f1",), adaptive_multi_attribute=True)
    conjunction = Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 3).and_(
        Predicate.comparison("f3", Operator.LT, VALUE_RANGE // 3)
    )
    query = Query(name="conj", predicate=conjunction, projection=("f1", "f3"), description="")
    expected = plain.run_query(query, _PATH).sorted_records()
    assert multi.run_query(query, _PATH).sorted_records() == expected
    # And after convergence the same query still returns the same records.
    assert multi.run_query(query, _PATH).sorted_records() == expected


# --------------------------------------------------------------------------- introspection
def test_adaptive_replica_bytes_matches_per_node_footprints():
    system = _system()
    _converge(system, "f1")
    namenode = system.hdfs.namenode
    total = sum(namenode.adaptive_bytes_on(node.node_id) for node in system.cluster.nodes)
    assert system.adaptive_replica_bytes(_PATH) == total > 0
