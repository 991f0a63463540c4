"""A job's HAIL state lives on its input format, never in ``JobConf.properties``.

The paper changes Hadoop only through the InputFormat and the RecordReader (Section 4.3).
``HailInputFormat`` therefore holds everything a HAIL job carries beyond Bob's ``hail.query``
annotation — the deployment's config, the job's adaptive-indexing context, the lifecycle
manager — and the generic runner and JobTracker reach it only through the three
``InputFormat`` defaults (``index_aware_scheduling``, ``start_run``, ``finish_run``).  The
split phase puts every block of the file into exactly one split, zone-map skips included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.mapreduce
from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters
from repro.cluster.failure import FailureEvent
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.adaptive import AdaptiveJobContext
from repro.hail.config import HailConfig
from repro.hail.input_format import HailInputFormat
from repro.hail.system import HailSystem
from repro.mapreduce import TextInputFormat
from repro.mapreduce.counters import Counters
from repro.mapreduce.job_tracker import ConcurrencyPolicy
from repro.query.annotation import JOB_PROPERTY
from repro.query.predicate import Operator, Predicate, Query

_PATH = "/state/synthetic"
_NUM_RECORDS = 360  # 9 blocks of 40 rows
_ROWS_PER_BLOCK = 40

#: A narrow range on f2: on f2-sorted data most blocks' zone synopses prove it empty.
_NARROW = Query(
    name="narrow",
    predicate=Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 16),
    projection=None,
)
#: A predicate no block can satisfy: every block's zone synopsis proves it empty.
_NEVER = Query(name="never", predicate=Predicate.comparison("f2", Operator.LT, -1), projection=None)


def _records() -> list[tuple]:
    # Sorted on f2 so per-block f2 zone ranges are disjoint: range predicates prune cleanly.
    return sorted(
        SyntheticGenerator(seed=11).generate(_NUM_RECORDS),
        key=lambda record: record[SYNTHETIC_SCHEMA.index_of("f2")],
    )


def _cost() -> CostModel:
    return CostModel(CostParameters(enable_variance=False, data_scale=50.0))


def _deploy(system):
    system.upload(_PATH, _records(), SYNTHETIC_SCHEMA, rows_per_block=_ROWS_PER_BLOCK)
    return system


def _hail(config: HailConfig) -> HailSystem:
    return _deploy(HailSystem(Cluster.homogeneous(3, seed=2), config=config, cost=_cost()))


def _zone_map_config() -> HailConfig:
    return HailConfig(index_attributes=("f1",), functional_partition_size=1).with_zone_maps(True)


# --------------------------------------------------------------------------- the split report
def test_a_jobconf_submitted_twice_in_one_batch_counts_its_pruned_blocks_twice():
    """Both runs of one reused ``JobConf`` report the blocks their readers skipped."""
    system = _hail(_zone_map_config())
    jobconf = system._scan_jobconf(_NEVER, _PATH)
    results = system.runner.run_concurrent(
        [jobconf, jobconf], policy=ConcurrencyPolicy(max_concurrent_jobs=2)
    )
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    skipped = [result.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) for result in results]
    assert skipped == [num_blocks, num_blocks]
    pruned_bytes = [result.counters.value(Counters.ZONE_MAP_PRUNED_BYTES) for result in results]
    assert pruned_bytes[0] == pruned_bytes[1] > 0


@pytest.mark.parametrize(
    "deployment",
    ["hadoop", "hadoop++", "hail", "hail-zone-maps"],
)
@pytest.mark.parametrize("query", [_NARROW, _NEVER], ids=["narrow", "never"])
def test_splits_cover_every_block_exactly_once(deployment, query):
    if deployment == "hadoop":
        system = _deploy(HadoopSystem(Cluster.homogeneous(3, seed=2), cost=_cost()))
    elif deployment == "hadoop++":
        cluster = Cluster.homogeneous(3, seed=2)
        system = _deploy(HadoopPlusPlusSystem(cluster, trojan_attribute="f1", cost=_cost()))
    elif deployment == "hail":
        system = _hail(HailConfig(index_attributes=("f1",), functional_partition_size=1))
    else:
        system = _hail(_zone_map_config())
    plan = system.runner.job_client.compute_splits(system._scan_jobconf(query, _PATH))
    covered = [block_id for split in plan.splits for block_id in split.block_ids]
    blocks = system.hdfs.namenode.file_blocks(_PATH)
    # Blocks whose zone synopses prove the predicate empty still ride in a split: their
    # readers re-check the skip against the payload.
    assert sorted(covered) == sorted(blocks)
    assert plan.num_blocks == len(blocks)


# --------------------------------------------------------------------------- the format
def test_adaptive_indexing_needs_the_jobs_context():
    config = HailConfig(index_attributes=("f1",)).with_adaptive(True)
    with pytest.raises(ValueError, match="AdaptiveJobContext"):
        HailInputFormat(config)
    context = AdaptiveJobContext.from_config(config, salt=3)
    assert HailInputFormat(config, adaptive=context).adaptive is context
    assert HailInputFormat(HailConfig()).adaptive is None


def test_start_run_resets_the_context_and_mutes_the_probe():
    """Each run offers afresh; the failure runner's probe records no index usage."""
    config = HailConfig(index_attributes=("f1",)).with_adaptive(True, offer_rate=1.0)
    context = AdaptiveJobContext.from_config(config)
    input_format = HailInputFormat(config, adaptive=context)
    assert context.offers(0, "f2") and context.builds_offered == 1
    input_format.start_run(measured=False)
    assert (context.record_usage, context.builds_offered, context.decisions) == (False, 0, {})
    input_format.start_run(measured=True)
    assert context.record_usage


def test_the_runner_finishes_only_measured_runs():
    """The failure runner's probe starts a run it never finishes; the measured run does both."""

    class Recording(TextInputFormat):
        def __init__(self) -> None:
            self.calls: list = []

        def start_run(self, measured: bool) -> None:
            self.calls.append(("start", measured))

        def finish_run(self, hdfs, cost, outcome, counters, tenant) -> None:
            self.calls.append(("finish", tenant, bool(outcome.scheduled)))

    system = _deploy(HadoopSystem(Cluster.homogeneous(3, seed=2), cost=_cost()))
    jobconf = system._scan_jobconf(_NARROW, _PATH)
    jobconf.input_format = Recording()
    system.run_job(jobconf, failure=FailureEvent(node_id=1, at_progress=0.5))
    assert jobconf.input_format.calls == [("start", False), ("start", True), ("finish", None, True)]
    jobconf.input_format.calls.clear()
    system.runner.run_concurrent([jobconf], tenants=["t"])
    assert jobconf.input_format.calls == [("start", True), ("finish", "t", True)]


# --------------------------------------------------------------------------- layering
def test_a_hail_job_leaves_only_the_query_annotation_in_its_properties():
    config = (
        HailConfig(index_attributes=("f1",), functional_partition_size=1)
        .with_zone_maps(True)
        .with_placement(scheduling=True)
        .with_adaptive(True)
        .with_lifecycle(auto_tune=True)
    )
    system = _hail(config)
    query = Query(
        name="f3-range",
        predicate=Predicate.comparison("f3", Operator.LT, VALUE_RANGE // 2),
        projection=None,
    )
    jobconf = system._scan_jobconf(query, _PATH)
    result = system.run_job(jobconf)
    counters = result.counters
    # Every feature really ran: index-aware launches, an adaptive commit, a tuner pass.
    tiers = (Counters.SCHED_INDEX_LOCAL, Counters.SCHED_PLAIN_LOCAL, Counters.SCHED_REMOTE)
    launched = counters.value(Counters.LAUNCHED_MAP_TASKS)
    assert sum(counters.value(tier) for tier in tiers) == launched > 0
    assert counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED) > 0
    assert len(system.lifecycle.reports) == 1
    assert set(jobconf.properties) == {JOB_PROPERTY}


def _imported_modules(path: Path) -> set[str]:
    """Every module ``path`` imports, at any depth, with ``from a import b`` giving ``a.b``."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_the_mapreduce_layer_knows_nothing_of_adaptive_indexing():
    package = Path(repro.mapreduce.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    forbidden = ("repro.engine.adaptive", "repro.engine.lifecycle")
    for source in sources:
        imported = _imported_modules(source)
        assert not {
            module for module in imported if module.startswith(forbidden)
        }, source.name
