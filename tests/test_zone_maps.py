"""Zone-map data skipping: correctness, fail-closed staleness, synopsis maintenance.

Three layers of guarantees pinned here:

1. **Identity** — with zone maps on, every query's result set is bit-identical to the same
   deployment with zone maps off and to a stock Hadoop full scan, under both kernel backends
   (the synopsis may change what is *read*, never what is *returned*).
2. **Fail-closed** — a forged ``Dir_rep`` synopsis that wrongly claims a block is skippable
   must degrade to a full scan with correct results (the executor re-verifies every
   planner-ordered skip against the payload); a payload synopsis with a stale row count
   disables partition pruning entirely.
3. **Maintenance** — every replica-creation path (upload, adaptive build commit, eviction
   downgrade, placement re-replication) registers ``zone_ranges`` consistent with the payload
   it stored.
"""

from __future__ import annotations

import random
from dataclasses import replace as dc_replace
from types import SimpleNamespace

import pytest

from repro.api import Session, col
from repro.baselines import HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine import kernels
from repro.engine.access_path import AccessPath
from repro.engine.lifecycle import PlacementBalancer, evict_under_pressure
from repro.engine.planner import PhysicalPlanner
from repro.hail import HailConfig, HailSystem, check_dir_rep_consistency
from repro.hail.predicate import Comparison, Operator, Predicate
from repro.layouts.pax import PaxBlock
from repro.layouts.schema import FieldType, Schema
from repro.layouts.zonemap import (
    ZoneMap,
    block_zone_ranges,
    disjoint_attribute,
    may_match_ranges,
    ranges_disjoint,
)
from repro.mapreduce.counters import Counters
from repro.workloads.query import Query

_PATH = "/zonemaps/synthetic"


def _cost() -> CostModel:
    return CostModel(CostParameters(enable_variance=False, data_scale=50.0))


def _hail(zone_maps: bool, **overrides) -> HailSystem:
    config = HailConfig(
        index_attributes=("f1",),
        functional_partition_size=1,
        zone_maps=zone_maps,
        **overrides,
    )
    return HailSystem(Cluster.homogeneous(3, seed=2), config=config, cost=_cost())


def _query(predicate: Predicate, name: str = "q", projection=("f2", "f3")) -> Query:
    return Query(name=name, predicate=predicate, projection=projection, description="")


# --------------------------------------------------------------------------- unit: synopsis
def test_ranges_disjoint_is_conservative_at_bounds():
    assert ranges_disjoint(None, 4, 5, 9)  # clause <= 4 vs zone [5, 9]
    assert ranges_disjoint(10, None, 5, 9)
    assert not ranges_disjoint(None, 5, 5, 9)  # touching bound: may match
    assert not ranges_disjoint(9, None, 5, 9)
    assert not ranges_disjoint(None, None, 5, 9)
    assert not ranges_disjoint("a", None, 5, 9)  # uncomparable types fail closed


def test_may_match_ranges_fails_closed():
    schema = Schema.of(("k", FieldType.INT), name="zm")
    predicate = Predicate.comparison("k", Operator.LT, 0)
    ranges = (("k", 5, 9),)
    assert not may_match_ranges(ranges, predicate, schema)  # provably disjoint
    assert may_match_ranges((), predicate, schema)  # no synopsis
    assert may_match_ranges(None, predicate, schema)
    assert may_match_ranges(ranges, None, schema)  # no predicate
    assert may_match_ranges((("other", 5, 9),), predicate, schema)  # attribute not covered


@pytest.mark.parametrize(
    "first",
    [
        Predicate.equals("f1", 3),  # resolves, but no zone covers f1
        Predicate.equals("missing", 3),  # no such field
        Predicate.equals(9, 3),  # position past the schema
    ],
)
def test_zone_consumers_agree_past_an_uncovered_clause(first):
    """Planner, ``Dir_rep`` check and payload zone map all skip on the one disjoint clause.

    A clause without a zone proves nothing, so every consumer moves on to the next clause
    instead of answering "may match" there; a conjunction needs only one disjoint clause.
    """
    schema = Schema.of(("f1", FieldType.INT), ("f2", FieldType.INT), name="zm")
    predicate = Predicate(first.clauses + Predicate.equals("f2", 20).clauses)
    ranges = (("f2", 5, 9),)
    info = SimpleNamespace(zone_ranges=ranges)
    hdfs = SimpleNamespace(namenode=SimpleNamespace(replica_info=lambda block, node: info))
    planner = PhysicalPlanner(hdfs, zone_maps=True)
    payload_zones = ZoneMap(num_rows=4, partition_size=2, block_zones={"f2": (5, 9)})

    assert planner._zone_map_skip(0, 0, predicate, schema) == "f2"
    assert not may_match_ranges(ranges, predicate, schema)
    assert not payload_zones.may_match(predicate, schema)


def _random_clause(rng: random.Random) -> Comparison:
    attribute = rng.choice(["f1", "f2", 1, 2, "missing", 9])
    op = rng.choice(list(Operator))
    if op is Operator.BETWEEN:
        return Comparison(attribute, op, tuple(sorted((rng.randint(-3, 12), rng.randint(-3, 12)))))
    return Comparison(attribute, op, (rng.randint(-3, 12),))


def test_disjoint_attribute_names_the_first_clause_outside_its_zone():
    """Against brute force over every integer in each zone, on 3000 seeded conjunctions.

    The answer is the first clause with a zone whose closed value range holds no value of
    that zone (unresolvable or unzoned clauses are passed over), and that clause matches
    no value of its zone under its real, possibly strict, operator.
    """
    rng = random.Random(35)
    schema = Schema.of(("f1", FieldType.INT), ("f2", FieldType.INT), name="zm")
    skipped = 0
    for _ in range(3000):
        clauses = [_random_clause(rng) for _ in range(rng.randint(1, 4))]
        zones = {
            name: tuple(sorted((rng.randint(-3, 12), rng.randint(-3, 12))))
            for name in ("f1", "f2")
            if rng.random() < 0.7
        }
        expected = None
        for clause in clauses:
            if clause.attribute in ("missing", 9):
                continue
            name = clause.attribute_name(schema)
            if name not in zones:
                continue
            low, high = clause.value_range()
            inside = range(zones[name][0], zones[name][1] + 1)
            if not any((low is None or low <= v) and (high is None or v <= high) for v in inside):
                assert not any(map(clause.matches, inside))
                expected = name
                break
        predicate = Predicate(clauses)
        assert disjoint_attribute(zones.get, predicate, schema) == expected
        ranges = tuple((name, low, high) for name, (low, high) in zones.items())
        assert may_match_ranges(ranges, predicate, schema) == (expected is None)
        skipped += expected is not None
    assert 300 < skipped < 2700  # both answers are well exercised


def test_zone_map_partition_pruning_matches_brute_force():
    rng = random.Random(71)
    schema = Schema.of(("k", FieldType.INT), name="zm")
    for _ in range(30):
        values = [rng.randrange(100) for _ in range(rng.randrange(1, 120))]
        pax = PaxBlock.from_records(schema, [(v,) for v in values])
        size = rng.choice((1, 7, 16, 50))
        zone_map = ZoneMap.build(pax, size)
        assert zone_map.matches(pax.num_rows)
        low = rng.randrange(100)
        predicate = Predicate.between("k", low, low + rng.randrange(25))
        start = rng.randrange(0, pax.num_rows + 1)
        end = rng.randrange(start, pax.num_rows + 1)
        pruned = zone_map.pruned_rows(predicate, schema, start, end)
        # One 0/1 flag per row of [start, end), or None when nothing is pruned ...
        if pruned is not None:
            assert len(pruned) == end - start
            assert set(pruned) <= {0, 1} and 1 in pruned
        # ... and pruning loses no matching row.
        for row in range(start, end):
            if predicate.matches(pax.record(row), schema):
                assert pruned is None or pruned[row - start] == 0


# --------------------------------------------------------------------------- identity property
@pytest.fixture(scope="module")
def zone_deployments():
    records = SyntheticGenerator(seed=19).generate(360)
    systems = {
        "hadoop": HadoopSystem(Cluster.homogeneous(3, seed=2), cost=_cost()),
        "zm_off": _hail(zone_maps=False),
        "zm_on": _hail(zone_maps=True),
    }
    for system in systems.values():
        system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=40)
    return systems


def test_pruned_execution_identical_to_full_scans(zone_deployments, monkeypatch):
    """Randomized queries: zone maps never change a result, under either kernel backend."""
    monkeypatch.setattr(kernels, "_NUMPY_MIN_ROWS", 0)  # numpy on every window, narrow ones too
    rng = random.Random(72)
    backends = ["python"] + (["numpy"] if kernels.HAVE_NUMPY else [])
    for index in range(12):
        attribute = rng.choice(("f1", "f2", "f3"))
        if index % 3 == 0:
            # Narrow ranges are the ones zone maps can actually skip.
            low = rng.randrange(VALUE_RANGE)
            predicate = Predicate.between(attribute, low, low + VALUE_RANGE // 50)
        elif index % 3 == 1:
            predicate = Predicate.comparison(attribute, Operator.LT, rng.randrange(VALUE_RANGE))
        else:
            predicate = Predicate.between(attribute, -10, -1)  # matches nothing anywhere
        query = _query(predicate, name=f"zm-{index}")
        reference = zone_deployments["hadoop"].run_query(query, _PATH).sorted_records()
        assert zone_deployments["zm_off"].run_query(query, _PATH).sorted_records() == reference
        for backend in backends:
            with kernels.use_backend(backend):
                result = zone_deployments["zm_on"].run_query(query, _PATH)
            assert result.sorted_records() == reference, (backend, index)


def test_skip_telemetry_and_explain(zone_deployments):
    """An impossible predicate skips every block, shows up in explain() and the counters."""
    system = zone_deployments["zm_on"]
    query = _query(Predicate.between("f2", -100, -1), name="zm-impossible")
    plan = system.plan_query(query, _PATH)
    assert plan.summary()["zone_map_skips"] == len(plan.block_plans) > 0
    assert "zone_map_skip" in system.explain(query, _PATH)
    result = system.run_query(query, _PATH)
    assert result.records == []
    counters = result.job.counters
    assert counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == len(plan.block_plans)
    assert counters.value(Counters.ZONE_MAP_PRUNED_BYTES) > 0
    # Skips are not fallbacks: they must not inflate the adaptive tuner's scan-fallback pool.
    assert counters.value(Counters.SCAN_FALLBACK_BLOCKS) == 0
    # The executed plan keeps the verified skips.
    executed = {block_plan.access_path for block_plan in result.plan.block_plans}
    assert executed == {AccessPath.ZONE_MAP_SKIP}


def test_skipped_blocks_still_ride_in_the_splits(zone_deployments, monkeypatch):
    """One planner pass cuts the splits, and every block it plans as a skip still gets a task.

    A block is never dropped on its registered synopsis alone: its reader re-checks the skip
    against the payload inside the map task.
    """
    system = zone_deployments["zm_on"]
    query = _query(Predicate.between("f2", -100, -1), name="zm-splits")
    jobconf = system._scan_jobconf(query, _PATH)
    calls = []
    plan_query = PhysicalPlanner.plan_query
    monkeypatch.setattr(
        PhysicalPlanner,
        "plan_query",
        lambda self, *args, **kwargs: calls.append(self.zone_maps) or plan_query(self, *args, **kwargs),
    )
    splits = jobconf.input_format.get_splits(system.hdfs, jobconf, system.cost)
    assert calls == [True]
    blocks = system.hdfs.namenode.file_blocks(_PATH)
    assert jobconf.input_format.plan.count(AccessPath.ZONE_MAP_SKIP) == len(blocks)
    assert sorted(block_id for split in splits for block_id in split.block_ids) == sorted(blocks)
    result = system.run_query(query, _PATH)
    assert result.records == [] and result.job.num_map_tasks > 0
    assert result.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == len(blocks)


def test_unfiltered_scans_are_never_skipped(zone_deployments):
    """No predicate: no synopsis can prove anything, so every row comes back."""
    result = zone_deployments["zm_on"].run_query(_query(None, name="zm-scan"), _PATH)
    assert len(result.records) == 360
    assert result.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == 0


def test_zone_maps_off_never_skips(zone_deployments):
    system = zone_deployments["zm_off"]
    query = _query(Predicate.between("f2", -100, -1), name="zm-off-impossible")
    plan = system.plan_query(query, _PATH)
    assert plan.summary()["zone_map_skips"] == 0
    result = system.run_query(query, _PATH)
    assert result.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == 0


# --------------------------------------------------------------------------- in-task skips
_SORTED_PATH = "/zonemaps/sorted"
_SORTED_RECORDS = 320  # 8 blocks of 40 rows

_NEVER = Predicate.comparison("f2", Operator.LT, -1)
_NARROW = Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 16)


def _sorted_hail(zone_maps: bool, max_jobs: int = 1) -> HailSystem:
    """Data sorted on f2, so per-block f2 zones are disjoint and range predicates skip cleanly."""
    config = HailConfig(
        index_attributes=("f1",), functional_partition_size=1, zone_maps=zone_maps
    ).with_concurrency(max_jobs=max_jobs)
    system = HailSystem(Cluster.homogeneous(3, seed=2), config=config, cost=_cost())
    records = sorted(
        SyntheticGenerator(seed=11).generate(_SORTED_RECORDS),
        key=lambda record: record[SYNTHETIC_SCHEMA.index_of("f2")],
    )
    system.upload(_SORTED_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=40)
    return system


@pytest.fixture(scope="module")
def sorted_deployments():
    return {zone_maps: _sorted_hail(zone_maps) for zone_maps in (False, True)}


@pytest.mark.parametrize("predicate", [_NEVER, _NARROW, None], ids=["never", "narrow", "scan"])
def test_zone_maps_never_change_the_map_task_count(sorted_deployments, predicate):
    """Skips happen inside map tasks: the job schedules the same tasks with zone maps on or off."""
    query = _query(predicate, name="zm-tasks", projection=None)
    skipping = sorted_deployments[True].run_query(query, _SORTED_PATH)
    control = sorted_deployments[False].run_query(query, _SORTED_PATH)
    assert skipping.sorted_records() == control.sorted_records()
    assert skipping.job.num_map_tasks == control.job.num_map_tasks > 0
    launched = Counters.LAUNCHED_MAP_TASKS
    assert skipping.job.counters.value(launched) == control.job.counters.value(launched)
    assert control.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == 0


def test_selective_range_skips_most_blocks_and_answers_exactly(sorted_deployments):
    """On f2-sorted data a narrow f2 range touches few blocks; the others are skipped in-task."""
    query = _query(_NARROW, name="zm-narrow", projection=None)
    skipping = sorted_deployments[True].run_query(query, _SORTED_PATH)
    control = sorted_deployments[False].run_query(query, _SORTED_PATH)
    assert skipping.records, "degenerate test: the range matched nothing"
    assert skipping.sorted_records() == control.sorted_records()
    num_blocks = len(sorted_deployments[True].hdfs.namenode.file_blocks(_SORTED_PATH))
    skipped = skipping.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS)
    assert num_blocks // 2 < skipped < num_blocks
    assert skipping.record_reader_s < control.record_reader_s


@pytest.mark.parametrize("zone_maps", [False, True])
def test_get_splits_plans_the_file_once(sorted_deployments, monkeypatch, zone_maps):
    """One planner pass supplies the splits, and every block lands in exactly one of them."""
    system = sorted_deployments[zone_maps]
    jobconf = system._scan_jobconf(_query(_NARROW, name="zm-plan-once"), _SORTED_PATH)
    calls = []
    plan_query = PhysicalPlanner.plan_query
    monkeypatch.setattr(
        PhysicalPlanner,
        "plan_query",
        lambda self, *args, **kwargs: calls.append(self.zone_maps) or plan_query(self, *args, **kwargs),
    )
    splits = jobconf.input_format.get_splits(system.hdfs, jobconf, system.cost)
    assert calls == [zone_maps]
    blocks = system.hdfs.namenode.file_blocks(_SORTED_PATH)
    assert sorted(block_id for split in splits for block_id in split.block_ids) == sorted(blocks)
    planned_skips = jobconf.input_format.plan.count(AccessPath.ZONE_MAP_SKIP)
    assert (planned_skips > 0) == zone_maps


def test_all_pruned_concurrent_batch_returns_empty_results():
    """Two interleaved jobs whose every block is skipped in its task both come back empty."""
    system = _sorted_hail(zone_maps=True, max_jobs=2)
    never = _query(_NEVER, name="zm-never", projection=None)
    results = system.run_queries([(never, _SORTED_PATH), (never, _SORTED_PATH)])
    num_blocks = len(system.hdfs.namenode.file_blocks(_SORTED_PATH))
    assert len(results) == 2
    for result in results:
        counters = result.job.counters
        assert result.records == []
        assert counters.value(Counters.LAUNCHED_MAP_TASKS) == result.job.num_map_tasks > 0
        assert counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == num_blocks
        assert counters.value(Counters.ZONE_MAP_PRUNED_BYTES) > 0


def test_session_stats_surface_zone_counters():
    session = Session(_hail(zone_maps=True))
    data = session.upload(_PATH, SyntheticGenerator(seed=19).generate(200),
                          SYNTHETIC_SCHEMA, rows_per_block=40)
    before = session.stats()
    assert before.zone_map_skipped_blocks == 0 and before.zone_map_pruned_bytes == 0.0
    session.run_batch([data.where(col("f2").between(-100, -1)).select("f2")])
    stats = session.stats()
    assert stats.zone_map_skipped_blocks > 0
    assert stats.zone_map_pruned_bytes > 0.0


# --------------------------------------------------------------------------- fail-closed
def _forge_dir_rep(system: HailSystem, block_id: int, datanode_id: int, **changes) -> None:
    """Re-register one stored replica, unchanged, under an edited ``Dir_rep`` entry."""
    hdfs = system.hdfs
    info = hdfs.namenode.replica_info(block_id, datanode_id)
    replica = hdfs.datanode(datanode_id).replica(block_id)
    with hdfs.mutating(block_id, "forged_dir_rep"):
        hdfs.install_replica(
            block_id, datanode_id, replica.payload,
            info=dc_replace(info, **changes), checksums=replica.checksums,
        )


def _forge_dir_rep_zone_ranges(system: HailSystem, path: str, attribute: str) -> int:
    """Overwrite every replica's registered synopsis to claim ``attribute`` is huge."""
    namenode = system.hdfs.namenode
    forged_blocks = 0
    for block_id in namenode.file_blocks(path):
        for datanode_id, info in namenode.replica_infos(block_id).items():
            forged = tuple(
                (name, 10**9, 10**9 + 1) if name == attribute else (name, low, high)
                for name, low, high in (info.zone_ranges or ())
            )
            _forge_dir_rep(system, block_id, datanode_id, zone_ranges=forged)
        forged_blocks += 1
    return forged_blocks


def test_stale_dir_rep_synopsis_fails_closed_to_full_scan():
    """A forged skip order must never drop a matching block — it degrades to a full scan."""
    records = SyntheticGenerator(seed=23).generate(240)
    reference_system = _hail(zone_maps=False)
    system = _hail(zone_maps=True)
    for deployment in (reference_system, system):
        deployment.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=40)
    _forge_dir_rep_zone_ranges(system, _PATH, "f2")

    query = _query(Predicate.between("f2", 0, VALUE_RANGE), name="zm-stale")
    plan = system.plan_query(query, _PATH)
    assert plan.summary()["zone_map_skips"] == len(plan.block_plans)  # planner was fooled
    result = system.run_query(query, _PATH)
    # The executor re-verified against the payloads and read everything: full, correct answer.
    reference = reference_system.run_query(query, _PATH)
    assert result.sorted_records() == reference.sorted_records()
    assert len(result.records) > 0
    counters = result.job.counters
    assert counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == 0
    executed = result.plan.block_plans
    assert all(block_plan.access_path is not AccessPath.ZONE_MAP_SKIP for block_plan in executed)
    assert any(
        block_plan.fallback_reason == "stale zone map synopsis" for block_plan in executed
    )


def test_forged_dir_rep_entry_is_reported_by_the_consistency_invariant():
    """``check_dir_rep_consistency`` holds every entry against its payload's own description."""
    system = _hail(zone_maps=True)
    records = SyntheticGenerator(seed=23).generate(120)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=40)
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []
    _forge_dir_rep_zone_ranges(system, _PATH, "f2")
    namenode = system.hdfs.namenode
    block_id = namenode.file_blocks(_PATH)[0]
    datanode_id, info = next(iter(namenode.replica_infos(block_id).items()))
    _forge_dir_rep(system, block_id, datanode_id, num_records=info.num_records + 1)
    violations = check_dir_rep_consistency(system.hdfs, _PATH)
    assert sum("zone_ranges" in violation for violation in violations) == sum(
        len(namenode.replica_infos(b)) for b in namenode.file_blocks(_PATH)
    )
    assert sum("num_records" in violation for violation in violations) == 1


def test_stale_payload_synopsis_disables_pruning():
    """A payload zone map with the wrong row count must not prune a single row."""
    records = SyntheticGenerator(seed=29).generate(200)
    system = _hail(zone_maps=True)
    reference_system = _hail(zone_maps=False)
    for deployment in (system, reference_system):
        deployment.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=40)
    # Inject a stale synopsis (wrong num_rows) into every stored payload.
    for node in system.cluster.nodes:
        datanode = system.hdfs.datanode(node.node_id)
        for block_id in datanode.block_ids():
            payload = datanode.replica(block_id).payload
            fresh = payload.zone_map
            payload._zone_map = dc_replace(fresh, num_rows=fresh.num_rows + 1)
            assert not payload.zone_map.matches(payload.num_records)
    query = _query(Predicate.between("f2", 0, VALUE_RANGE // 4), name="zm-stale-payload")
    result = system.run_query(query, _PATH)
    reference = reference_system.run_query(query, _PATH)
    assert result.sorted_records() == reference.sorted_records()
    # Pruning was refused everywhere: not one byte claimed as saved.
    assert result.job.counters.value(Counters.ZONE_MAP_PRUNED_BYTES) == 0.0


# --------------------------------------------------------------------------- maintenance
def _assert_registered_synopses_consistent(system: HailSystem, path: str) -> dict[str, int]:
    """Every alive replica's ``Dir_rep`` synopsis equals its payload's own; count origins."""
    namenode = system.hdfs.namenode
    origins: dict[str, int] = {}
    for block_id in namenode.file_blocks(path):
        for datanode_id, info in namenode.replica_infos(block_id).items():
            payload = system.hdfs.datanode(datanode_id).replica(block_id).payload
            assert info.zone_ranges == block_zone_ranges(payload.pax), (
                block_id,
                datanode_id,
                info.origin,
            )
            origins[info.origin] = origins.get(info.origin, 0) + 1
    return origins


def _lifecycle_system(**overrides) -> HailSystem:
    config = HailConfig(
        index_attributes=(),
        replication=3,
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        zone_maps=True,
        **overrides,
    )
    system = HailSystem(
        Cluster.homogeneous(4, seed=7),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False, data_scale=5000.0)),
    )
    records = SyntheticGenerator(seed=3).generate(800)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)
    return system


def test_upload_and_adaptive_commit_register_zone_ranges():
    system = _lifecycle_system()
    origins = _assert_registered_synopses_consistent(system, _PATH)
    assert origins.get("upload", 0) > 0 and "adaptive" not in origins
    # Converge an adaptive index on f1: committed builds must carry a fresh synopsis.
    query = _query(
        Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 10), "conv", ("f1",)
    )
    for _ in range(2):
        system.run_query(query, _PATH)
    assert system.adaptive_replica_count(_PATH) > 0
    origins = _assert_registered_synopses_consistent(system, _PATH)
    assert origins.get("adaptive", 0) > 0


def test_eviction_downgrade_registers_zone_ranges():
    system = _lifecycle_system()
    query = _query(
        Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 10), "conv", ("f1",)
    )
    for _ in range(2):
        system.run_query(query, _PATH)
    assert system.adaptive_replica_count(_PATH) > 0
    policy = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
    evicted = evict_under_pressure(system.hdfs, policy)
    assert any(record.kind == "downgrade" for record in evicted)
    origins = _assert_registered_synopses_consistent(system, _PATH)
    assert origins.get("evicted", 0) > 0


def test_placement_rebuild_registers_zone_ranges():
    system = _lifecycle_system()
    query = _query(
        Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 10), "conv", ("f1",)
    )
    for _ in range(2):
        system.run_query(query, _PATH)
    policy = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
    evict_under_pressure(system.hdfs, policy)
    assert system.adaptive_replica_count(_PATH) == 0
    balancer = PlacementBalancer(rebuilds_per_pass=8)
    balancer.demand["f1"] = 8
    actions = balancer.run(system.hdfs)
    assert any(action.kind == "rebuild" for action in actions)
    origins = _assert_registered_synopses_consistent(system, _PATH)
    assert origins.get("adaptive", 0) > 0
