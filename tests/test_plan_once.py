"""HAIL plans each block once per query shape and layout epoch: the split phase's plan is the
plan its record readers execute.

``HailInputFormat.get_splits`` plans the file (or takes the deployment's ``SplitMemo`` entry
for the query's shape on the current layout), keeps the :class:`QueryPlan` and hands it to
every record reader.  A reader executes a pinned block's carried plan as is and re-plans only
when the pinned host died (the Figure 8 failover) or the pinned replica's ``Dir_rep`` entry was
replaced since — and it never mutates the shared plan.  ``explain()`` renders that same plan.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.cluster.failure import ConcurrentChaos
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.access_path import AccessPath
from repro.engine.executor import VectorizedExecutor
from repro.engine.planner import BoundQuery, PhysicalPlanner
from repro.hail.config import HailConfig
from repro.hail.input_format import HailInputFormat
from repro.hail.system import HailSystem
from repro.hdfs.namenode import NameNode
from repro.mapreduce.counters import Counters
from repro.query.annotation import resolve_annotation
from repro.query.predicate import Operator, Predicate, Query
from repro.workloads import bob_queries

_PATH = "/uv"
_BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")


def _bob_system(**concurrency) -> HailSystem:
    config = HailConfig.for_attributes(_BOB_INDEXES)
    if concurrency:
        config = config.with_concurrency(**concurrency)
    system = HailSystem(
        Cluster.homogeneous(4, seed=5),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    system.upload(_PATH, _rows(), USERVISITS_SCHEMA, rows_per_block=100)
    return system


def _rows() -> list[tuple]:
    return UserVisitsGenerator(seed=9).generate(1600)


def _brute_force(query: Query) -> list[tuple]:
    """The query's answer straight from the uploaded records, sorted."""
    schema = USERVISITS_SCHEMA
    predicate = query.predicate
    rows = [row for row in _rows() if predicate is None or predicate.matches(row, schema)]
    if query.projection is not None:
        positions = [schema.index_of(name) for name in query.projection]
        rows = [tuple(row[i] for i in positions) for row in rows]
    return sorted(rows)


def _read_splits(system, jobconf, splits, monkeypatch) -> tuple[list, list]:
    """Read every split on its first location; the plans handed to the executor, and rows."""
    executed = []
    execute = VectorizedExecutor.execute

    def recording(self, plan, *args, **kwargs):
        executed.append((self.node_id, copy.copy(plan)))
        return execute(self, plan, *args, **kwargs)

    monkeypatch.setattr(VectorizedExecutor, "execute", recording)
    rows = []
    alive = [node.node_id for node in system.cluster.nodes if node.is_alive]
    for split in splits:
        node_id = next((host for host in split.locations if host in alive), alive[0])
        reader = jobconf.input_format.create_record_reader(
            split, system.hdfs, jobconf, system.cost, node_id
        )
        for batch in reader.batches():
            rows.extend(batch.projected.rows())
    monkeypatch.setattr(VectorizedExecutor, "execute", execute)
    return executed, sorted(rows)


def _fresh_plans(system, jobconf, splits, executed) -> list:
    """What ``plan_block`` plans now for each executed block, on the node that executed it."""
    planner = PhysicalPlanner(system.hdfs, zone_maps=system.config.zone_maps)
    bound = BoundQuery.bind(resolve_annotation(jobconf), system.schema_of(jobconf.input_path))
    preferred = {}
    for split in splits:
        preferred.update(split.preferred_replicas)
    return [
        planner.plan_block(
            plan.block_id,
            bound,
            preferred=preferred.get(plan.block_id),
            prefer_node=node_id,
        )
        for node_id, plan in executed
    ]


def _plan_bytes(plan) -> bytes:
    """Every field of the plan and of each block plan, compare=False fields included."""
    return pickle.dumps(
        [plan.path, plan.filter_attributes, plan.projection]
        + [dataclasses.astuple(block_plan) for block_plan in plan.block_plans]
    )


# ------------------------------------------------------------------ call-count guard
def test_each_block_is_planned_once_and_walked_once(monkeypatch):
    """Fault-free, non-adaptive Bob queries with HailSplitting: one plan and one
    ``getHostsWithIndex`` walk per block, shared by the replica choice and the splits — per
    query shape and layout epoch, not per job.  Bob-Q5 has Bob-Q4's shape (a projection and a
    filter on ``adRevenue`` only), so it plans nothing; a second pass of all five plans
    nothing either."""
    system = _bob_system()
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    counts = {"plan": 0, "walk": 0}
    plan_block = PhysicalPlanner._plan_block
    indexed_among = NameNode.indexed_among

    def counting_plan(self, *args, **kwargs):
        counts["plan"] += 1
        return plan_block(self, *args, **kwargs)

    def counting_walk(self, block_id, attribute, hosts):
        counts["walk"] += 1
        return indexed_among(self, block_id, attribute, hosts)

    monkeypatch.setattr(PhysicalPlanner, "_plan_block", counting_plan)
    monkeypatch.setattr(NameNode, "indexed_among", counting_walk)
    planned = []
    for query in bob_queries() * 2:
        counts.update(plan=0, walk=0)
        result = system.run_query(query, _PATH)
        assert result.job.num_map_tasks < num_blocks  # HailSplitting engaged
        assert result.plan.num_index_scans == num_blocks
        walks = num_blocks * len(result.plan.filter_attributes)
        assert (counts["plan"], counts["walk"]) in ((num_blocks, walks), (0, 0)), query.name
        planned.append(counts["plan"] // num_blocks)
        assert sorted(result.records) == _brute_force(query)
    assert planned == [1, 1, 1, 1, 0] + [0] * 5


# ------------------------------------------------------------------ fail closed
def test_dead_pinned_host_re_plans_the_block(monkeypatch):
    """Killing a pinned host between ``get_splits`` and the read re-plans its blocks."""
    system = _bob_system()
    query = bob_queries()[0]
    jobconf = system._scan_jobconf(query, _PATH)
    splits = jobconf.input_format.get_splits(system.hdfs, jobconf, system.cost)
    pinned = jobconf.input_format.plan.block_plans[0].datanode_id
    system.cluster.kill_node(pinned)
    try:
        executed, rows = _read_splits(system, jobconf, splits, monkeypatch)
        plans = [plan for _, plan in executed]
        assert plans == _fresh_plans(system, jobconf, splits, executed)
        assert all(plan.datanode_id != pinned for plan in plans)
        assert any("lost" in (plan.fallback_reason or "") for plan in plans)
        assert rows == _brute_force(query)
    finally:
        system.cluster.node(pinned).revive()


def test_replaced_dir_rep_entry_re_plans_the_block(monkeypatch):
    """A replica re-installed after ``get_splits`` is re-planned from its new entry."""
    system = _bob_system()
    query = bob_queries()[0]
    jobconf = system._scan_jobconf(query, _PATH)
    splits = jobconf.input_format.get_splits(system.hdfs, jobconf, system.cost)
    carried = jobconf.input_format.plan.block_plans[0]
    assert carried.uses_index
    hdfs, block_id, pinned = system.hdfs, carried.block_id, carried.datanode_id
    # The pinned node now holds a copy of another replica, indexed on another attribute.
    donor = next(host for host in hdfs.namenode.block_datanodes(block_id) if host != pinned)
    replica = hdfs.read_replica(block_id, donor)
    info = dataclasses.replace(hdfs.namenode.replica_info(block_id, donor), datanode_id=pinned)
    with hdfs.mutating(block_id, site="test"):
        hdfs.remove_replica(block_id, pinned)
        hdfs.install_replica(block_id, pinned, replica.payload, info=info)

    executed, rows = _read_splits(system, jobconf, splits, monkeypatch)
    plans = [plan for _, plan in executed]
    assert plans == _fresh_plans(system, jobconf, splits, executed)
    replanned = next(plan for plan in plans if plan.block_id == block_id)
    assert replanned.datanode_id == pinned and replanned != carried
    assert replanned.replica_info is info
    assert rows == _brute_force(query)


# ------------------------------------------------------------------ no aliasing
def test_running_a_job_twice_leaves_its_plan_untouched(monkeypatch):
    system = _bob_system()
    snapshots = []
    get_splits = HailInputFormat.get_splits

    def snapshotting(self, *args):
        splits = get_splits(self, *args)
        snapshots.append((self, _plan_bytes(self.plan)))
        return splits

    monkeypatch.setattr(HailInputFormat, "get_splits", snapshotting)
    jobconf = system._scan_jobconf(bob_queries()[2], _PATH)
    for _ in range(2):
        system.run_job(jobconf)
        input_format, snapshot = snapshots[-1]
        assert input_format is jobconf.input_format
        assert input_format.plan.num_index_scans == input_format.plan.num_blocks
        assert _plan_bytes(input_format.plan) == snapshot


def test_speculative_attempts_leave_the_plan_untouched(monkeypatch):
    system = _bob_system(max_jobs=2, speculative_execution=True)
    snapshots = []
    get_splits = HailInputFormat.get_splits

    def snapshotting(self, *args):
        splits = get_splits(self, *args)
        snapshots.append((self, _plan_bytes(self.plan)))
        return splits

    monkeypatch.setattr(HailInputFormat, "get_splits", snapshotting)
    queries = bob_queries()[:2]
    results = system.run_queries(
        [(query, _PATH) for query in queries], chaos=ConcurrentChaos(slow_nodes={1: 12.0})
    )
    assert sum(r.job.counters.value(Counters.SPEC_ATTEMPTS_LAUNCHED) for r in results) > 0
    assert len(snapshots) == len(queries)
    for input_format, snapshot in snapshots:
        assert _plan_bytes(input_format.plan) == snapshot
    for query, result in zip(queries, results):
        assert sorted(result.records) == _brute_force(query)


# ------------------------------------------------------------------ explain
@pytest.mark.parametrize("zone_maps", [False, True])
def test_explain_renders_the_plan_the_split_phase_made(zone_maps):
    system = HailSystem(
        Cluster.homogeneous(3, seed=2),
        config=HailConfig(
            index_attributes=("f1",),
            functional_partition_size=1,
            zone_maps=zone_maps,
        ),
        cost=CostModel(CostParameters(enable_variance=False, data_scale=50.0)),
    )
    # Sorted on f2 so per-block f2 zone ranges are disjoint: a narrow range skips blocks.
    records = sorted(
        SyntheticGenerator(seed=11).generate(320),
        key=lambda record: record[SYNTHETIC_SCHEMA.index_of("f2")],
    )
    system.upload("/zm", records, SYNTHETIC_SCHEMA, rows_per_block=40)
    query = Query(
        name="narrow",
        predicate=Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 16),
        projection=None,
    )
    jobconf = system._scan_jobconf(query, "/zm")
    jobconf.input_format.get_splits(system.hdfs, jobconf, system.cost)
    split_plan = jobconf.input_format.plan
    assert system.explain(query, "/zm") == split_plan.explain()
    assert (split_plan.count(AccessPath.ZONE_MAP_SKIP) > 0) == zone_maps
