"""Zone-aware split pruning: provably-empty blocks never become map tasks.

With ``zone_split_pruning`` on, :class:`~repro.hail.input_format.HailInputFormat` consults the
``Dir_rep`` zone synopses *before* building input splits and drops every block the planner
classifies as ``ZONE_MAP_SKIP`` — so the JobTracker schedules no map task for it at all, and
the per-task overhead is saved on top of the data bytes.  These tests pin the knob's gating
(requires ``zone_maps``), the counters, the scheduling effect, and result fidelity.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.planner import PhysicalPlanner
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import PRUNED_BLOCKS_PROPERTY
from repro.workloads.query import Query

_PATH = "/prune/synthetic"
_ROWS_PER_BLOCK = 40
_NUM_RECORDS = 320  # 8 blocks


def _system(zone_maps: bool = True, split_pruning: bool = True, max_jobs: int = 1) -> HailSystem:
    system = HailSystem(
        Cluster.homogeneous(3, seed=2),
        config=HailConfig(
            index_attributes=("f1",),
            functional_partition_size=1,
            zone_maps=zone_maps,
            zone_split_pruning=split_pruning,
        ).with_concurrency(max_jobs=max_jobs),
        cost=CostModel(CostParameters(enable_variance=False, data_scale=50.0)),
    )
    # Sorted on f2 so per-block f2 zone ranges are disjoint: range predicates prune cleanly.
    records = sorted(
        SyntheticGenerator(seed=11).generate(_NUM_RECORDS),
        key=lambda record: record[SYNTHETIC_SCHEMA.index_of("f2")],
    )
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=_ROWS_PER_BLOCK)
    return system


def test_knob_requires_zone_maps():
    with pytest.raises(ValueError, match="zone_maps"):
        HailConfig(zone_split_pruning=True)
    config = HailConfig().with_zone_maps(True, split_pruning=True)
    assert config.zone_maps and config.zone_split_pruning


@pytest.mark.parametrize("split_pruning", [True, False])
def test_get_splits_plans_the_file_once(monkeypatch, split_pruning):
    """One planner pass supplies both the pruned set and the replica choices."""
    system = _system(split_pruning=split_pruning)
    query = Query(
        name="narrow",
        predicate=Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 16),
        projection=None,
    )
    jobconf = system._scan_jobconf(query, _PATH)
    calls = []
    plan_query = PhysicalPlanner.plan_query
    monkeypatch.setattr(
        PhysicalPlanner,
        "plan_query",
        lambda self, *args, **kwargs: calls.append(self.zone_maps) or plan_query(self, *args, **kwargs),
    )
    splits = jobconf.input_format.get_splits(system.hdfs, jobconf, system.cost)
    assert calls == [split_pruning]
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    pruned = jobconf.properties.get(PRUNED_BLOCKS_PROPERTY, {"blocks": 0})["blocks"]
    assert (pruned > 0) == split_pruning
    assert sum(len(split.block_ids) for split in splits) == num_blocks - pruned


def test_impossible_predicate_schedules_zero_map_tasks():
    """A predicate no block can satisfy launches nothing: the whole file is pruned."""
    system = _system()
    query = Query(name="never", predicate=Predicate.comparison("f2", Operator.LT, -1), projection=None)
    result = system.run_query(query, _PATH)
    assert result.records == []
    assert result.job.num_map_tasks == 0
    counters = result.job.counters
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    assert counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == num_blocks
    assert counters.value(Counters.ZONE_MAP_PRUNED_BYTES) > 0


def test_all_pruned_concurrent_batch_returns_empty_results():
    """Zero map tasks is a normal job for the concurrent drain too (it used to stall)."""
    system = _system(max_jobs=2)
    never = Query(name="never", predicate=Predicate.comparison("f2", Operator.LT, -1), projection=None)
    results = system.run_queries([(never, _PATH), (never, _PATH)])
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    assert len(results) == 2
    for result in results:
        assert result.records == []
        assert result.job.num_map_tasks == 0
        assert result.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == num_blocks
        assert result.job.counters.value(Counters.LAUNCHED_MAP_TASKS) == 0


def test_selective_range_prunes_most_splits_and_answers_exactly():
    """On f2-sorted data a narrow f2 range touches few blocks; the rest never get tasks."""
    pruning = _system(split_pruning=True)
    control = _system(split_pruning=False)
    query = Query(
        name="narrow",
        predicate=Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 16),
        projection=None,
    )
    pruned = pruning.run_query(query, _PATH)
    unpruned = control.run_query(query, _PATH)
    assert pruned.sorted_records() == unpruned.sorted_records()
    assert pruned.records, "degenerate test: the range matched nothing"
    assert pruned.job.num_map_tasks < unpruned.job.num_map_tasks
    skipped = pruned.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS)
    num_blocks = len(pruning.hdfs.namenode.file_blocks(_PATH))
    assert pruned.job.num_map_tasks + skipped >= num_blocks  # every block accounted for


def test_pruning_off_schedules_every_block():
    system = _system(split_pruning=False)
    query = Query(name="never", predicate=Predicate.comparison("f2", Operator.LT, -1), projection=None)
    result = system.run_query(query, _PATH)
    assert result.records == []
    # Without split pruning the tasks still launch; zone maps skip inside the tasks instead.
    assert result.job.num_map_tasks > 0


def test_unfiltered_scans_are_never_pruned():
    """No predicate → no synopsis can prove anything → identical scheduling to control."""
    system = _system(split_pruning=True)
    result = system.run_query(Query(name="scan", predicate=None, projection=None), _PATH)
    assert len(result.records) == _NUM_RECORDS
    assert result.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == 0
