"""HAIL's split phase plans a block once per query shape and layout write to that block, and
never goes stale.

``HailSystem.split_memo`` keeps each query shape's block plans and splits while the namenode
object and the set of alive nodes stay what they were, and re-plans a block only when its
stamp (``NameNode.block_epoch``) moved.  Pinned here:

- a repeated query on an unchanged deployment plans nothing in its split phase: 0
  ``_plan_block`` and 0 ``block_location`` calls;
- after every layout edge — a replica re-installed or removed inside ``Hdfs.mutating``, an
  adaptive commit, an eviction tombstone, another block uploaded to the path — the next split
  phase plans the blocks the edge wrote, and only those; after a node kill, its revival or
  ``Session.restore`` it plans every block.  What the memo then hands out is exactly what a
  format without a memo plans and cuts;
- a Hypothesis run interleaves those edges with queries and checks the same equality at every
  step.

Every ``NameNode`` method that writes the layout bumps ``epoch``, and every one that writes a
block's layout stamps that block; the AST rules for that live beside the namenode's other
write rules in ``tests/test_hdfs_namenode_datanode.py``.
"""

from __future__ import annotations

import dataclasses
import pickle
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.cluster import Cluster, CostModel, CostParameters
from repro.cluster.ledger import TransferLedger
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.access_path import AccessPath
from repro.engine.planner import PhysicalPlanner
from repro.hail.config import HailConfig
from repro.hail.input_format import SplitMemo
from repro.hail.system import HailSystem
from repro.hdfs.namenode import NameNode
from repro.query.predicate import Operator, Predicate, Query
from repro.workloads import bob_queries

from test_plan_once import _plan_bytes

_PATH = "/uv"
_ZONE_PATH = "/zm"
_BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")
_ROWS = UserVisitsGenerator(seed=9).generate(800)
#: Bob-Q1: every block is answered by the visitDate index.
_INDEXED = bob_queries()[0]
#: A filter no upload-time replica is indexed on: scans (or adaptive builds) on every block.
_UNINDEXED = Query(
    name="duration",
    predicate=Predicate.between("duration", 1, 5),
    projection=("sourceIP",),
)


def _deploy(config: HailConfig) -> HailSystem:
    system = HailSystem(
        Cluster.homogeneous(4, seed=5),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    system.upload(_PATH, _ROWS, USERVISITS_SCHEMA, rows_per_block=100)
    return system


def _split_phase(system: HailSystem, query, path: str = _PATH, memo: bool = True):
    """One split phase of ``query`` over ``path`` (with the deployment's memo, or planned
    afresh with an empty one): its plan and its splits."""
    jobconf = system._scan_jobconf(query, path)
    if not memo:
        jobconf.input_format.memo = SplitMemo()
    splits = jobconf.input_format.get_splits(system.hdfs, jobconf, system.cost)
    return jobconf.input_format.plan, splits


def _signature(plan, splits) -> bytes:
    """Every field of the plan, its block plans and its splits (``preferred_replicas`` too)."""
    return _plan_bytes(plan) + pickle.dumps([dataclasses.astuple(split) for split in splits])


def _fresh_equal(system: HailSystem, query, path: str = _PATH) -> bytes:
    """The memo's split phase, after checking it equals one planned without a memo."""
    memoised = _signature(*_split_phase(system, query, path))
    assert memoised == _signature(*_split_phase(system, query, path, memo=False))
    return memoised


def _split_phase_calls(
    system: HailSystem, query, monkeypatch, path: str = _PATH
) -> tuple[int, int]:
    """``(_plan_block calls, block_location calls)`` of one split phase of ``query``."""
    counts = {"plan": 0, "locations": 0}
    plan_block = PhysicalPlanner._plan_block
    block_location = NameNode.block_location

    def counting_plan(self, *args, **kwargs):
        counts["plan"] += 1
        return plan_block(self, *args, **kwargs)

    def counting_location(self, *args, **kwargs):
        counts["locations"] += 1
        return block_location(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(PhysicalPlanner, "_plan_block", counting_plan)
        patch.setattr(NameNode, "block_location", counting_location)
        _split_phase(system, query, path)
    return counts["plan"], counts["locations"]


def _num_blocks(system: HailSystem) -> int:
    return len(system.hdfs.namenode.file_blocks(_PATH))


def _adaptive_blocks(system: HailSystem) -> list[int]:
    """The blocks of the path holding an adaptively built replica."""
    namenode = system.hdfs.namenode
    return [
        block_id
        for block_id in namenode.file_blocks(_PATH)
        if any(
            info.is_adaptive
            for info in namenode.replica_infos(block_id, alive_only=False).values()
        )
    ]


# ------------------------------------------------------------------ the edges
def _pinned(system: HailSystem) -> tuple[int, int]:
    """``(block id, datanode)`` of the first block's plan for Bob-Q1."""
    plan = _split_phase(system, _INDEXED)[0].block_plans[0]
    return plan.block_id, plan.datanode_id


def _reinstall(system: HailSystem) -> HailSystem:
    """The first block's pinned replica becomes a copy of another alive holder's replica."""
    hdfs = system.hdfs
    block_id, pinned = _pinned(system)
    donors = [host for host in hdfs.namenode.block_datanodes(block_id) if host != pinned]
    if donors:
        payload = hdfs.read_replica(block_id, donors[0]).payload
        info = dataclasses.replace(
            hdfs.namenode.replica_info(block_id, donors[0]), datanode_id=pinned
        )
        with hdfs.mutating(block_id, site="test"):
            hdfs.remove_replica(block_id, pinned)
            hdfs.install_replica(block_id, pinned, payload, info=info)
    return system


def _remove(system: HailSystem) -> HailSystem:
    """The first block's pinned replica is dropped while the block keeps an alive one."""
    hdfs = system.hdfs
    block_id, pinned = _pinned(system)
    if len(hdfs.namenode.block_datanodes(block_id)) > 1:
        with hdfs.mutating(block_id, site="test"):
            hdfs.remove_replica(block_id, pinned)
    return system


def _adaptive_commit(system: HailSystem) -> HailSystem:
    """A query on an unindexed attribute builds adaptive indexes and commits them."""
    system.run_query(_UNINDEXED, _PATH)
    return system


def _tombstone(system: HailSystem) -> HailSystem:
    """An eviction tombstone for the first block's (never built) ``duration`` index."""
    block_id = system.hdfs.namenode.file_blocks(_PATH)[0]
    system.hdfs.namenode.record_index_eviction(block_id, "duration", 1)
    return system


def _kill(system: HailSystem) -> HailSystem:
    """The first block's pinned host dies (one dead node at a time: every block stays alive,
    so not when removals left it the only alive holder of some block)."""
    namenode = system.hdfs.namenode
    if len(system.cluster.alive_nodes) == len(system.cluster):
        host = _pinned(system)[1]
        if all(
            set(namenode.block_datanodes(block_id)) - {host}
            for block_id in namenode.file_blocks(_PATH)
        ):
            system.cluster.kill_node(host)
    return system


def _revive(system: HailSystem) -> HailSystem:
    system.cluster.revive_all()
    return system


def _upload_block(system: HailSystem) -> HailSystem:
    """Another 50-row block is appended to the path through HAIL's upload pipeline."""
    system._upload_pipeline().upload_block(
        _PATH, _ROWS[:50], USERVISITS_SCHEMA, client_node=system.cluster.alive_nodes[0].node_id,
        ledger=TransferLedger(system.cluster, system.cost),
    )
    return system


def _restore(system: HailSystem) -> HailSystem:
    """The deployment is killed and reopened from its journal."""
    system.hdfs.persist.close()
    return Session.restore(system.config, nodes=4).system()


_EDGES = {
    "reinstall": _reinstall,
    "remove": _remove,
    "adaptive_commit": _adaptive_commit,
    "tombstone": _tombstone,
    "kill": _kill,
    "revive": _revive,
    "upload_block": _upload_block,
    "restore": _restore,
}


def _config(edge: str, directory) -> HailConfig:
    config = HailConfig.for_attributes(_BOB_INDEXES)
    if edge == "adaptive_commit":
        config = config.with_adaptive(offer_rate=1.0)
    if edge == "restore":
        config = config.with_persistence("sqlite", directory=str(directory))
    return config


# ------------------------------------------------------------------ call-count guard
def test_a_repeated_query_plans_nothing_in_its_split_phase(monkeypatch):
    """Bob's five queries, then the five again on the unchanged deployment: the first pass
    plans each new shape once (Bob-Q5 has Bob-Q4's), the second asks the namenode nothing."""
    system = _deploy(HailConfig.for_attributes(_BOB_INDEXES))
    num_blocks = _num_blocks(system)
    first = [_split_phase_calls(system, query, monkeypatch) for query in bob_queries()]
    assert first == [(num_blocks, num_blocks)] * 4 + [(0, 0)]
    second = [_split_phase_calls(system, query, monkeypatch) for query in bob_queries()]
    assert second == [(0, 0)] * 5
    for query in bob_queries():
        _fresh_equal(system, query)


def test_with_zone_maps_the_predicate_is_part_of_the_shape(monkeypatch):
    """Zone-map skips depend on the operands, so two predicates on one attribute keep two
    entries; each is planned once and handed back as a fresh zone-mapped planner plans it."""
    system = HailSystem(
        Cluster.homogeneous(3, seed=2),
        config=HailConfig(index_attributes=("f1",), functional_partition_size=1, zone_maps=True),
        cost=CostModel(CostParameters(enable_variance=False, data_scale=50.0)),
    )
    f2 = SYNTHETIC_SCHEMA.index_of("f2")
    records = sorted(SyntheticGenerator(seed=11).generate(320), key=lambda row: row[f2])
    system.upload(_ZONE_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=40)
    narrow, wide = (
        Query(name=name, predicate=Predicate.comparison("f2", Operator.LT, bound), projection=None)
        for name, bound in (("narrow", VALUE_RANGE // 16), ("wide", VALUE_RANGE))
    )
    num_blocks = len(system.hdfs.namenode.file_blocks(_ZONE_PATH))
    signatures = {}
    for query in (narrow, wide, narrow, wide):
        first = query.name not in signatures
        calls = _split_phase_calls(system, query, monkeypatch, _ZONE_PATH)
        assert calls == ((num_blocks, num_blocks) if first else (0, 0)), query.name
        signatures[query.name] = _fresh_equal(system, query, _ZONE_PATH)
    assert signatures["narrow"] != signatures["wide"]
    skips = _split_phase(system, narrow, _ZONE_PATH)[0].count(AccessPath.ZONE_MAP_SKIP)
    assert 0 < skips < num_blocks


@pytest.mark.parametrize("edge", sorted(_EDGES))
def test_each_layout_edge_plans_once_again_and_matches_a_fresh_planner(
    edge, tmp_path, monkeypatch
):
    """Before the edge a repeated split phase plans nothing; the edge makes the next one plan
    each block it wrote once (every block, when it changed the alive set or the namenode), and
    what it stores is what a format without a memo makes."""
    system = _deploy(_config(edge, tmp_path))
    query = _UNINDEXED if edge in ("adaptive_commit", "tombstone") else _INDEXED
    if edge == "revive":
        _kill(system)
    before = _fresh_equal(system, query)
    assert _split_phase_calls(system, query, monkeypatch) == (0, 0)

    system = _EDGES[edge](system)
    if edge in ("kill", "revive", "restore"):
        written = _num_blocks(system)
    elif edge == "adaptive_commit":
        written = len(_adaptive_blocks(system))
        assert written > 0
    else:
        written = 1
    assert _split_phase_calls(system, query, monkeypatch) == (written, written)
    after = _fresh_equal(system, query)
    assert _split_phase_calls(system, query, monkeypatch) == (0, 0)
    if edge == "restore":
        system.hdfs.persist.close()
    else:
        # The edge changed the plan or the splits, so a stale memo would have shown.
        assert after != before


# ------------------------------------------------------------------ interleaved edges
def _query(query):
    def run(system: HailSystem) -> HailSystem:
        system.run_query(query, _PATH)
        return system

    return run


_STEPS = {
    **_EDGES,
    "query_indexed": _query(_INDEXED),
    "query_unindexed": _query(_UNINDEXED),
}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(st.sampled_from(sorted(_STEPS)), min_size=1, max_size=8))
def test_interleaved_edges_and_queries_never_meet_a_stale_split_phase(steps):
    """An adaptive, journaled deployment: after every step both queries' split phases equal
    a fresh planner's."""
    with tempfile.TemporaryDirectory() as directory:
        config = HailConfig.for_attributes(_BOB_INDEXES).with_adaptive(offer_rate=1.0)
        system = _deploy(config.with_persistence("sqlite", directory=directory))
        try:
            for step in steps:
                system = _STEPS[step](system)
                for query in (_INDEXED, _UNINDEXED):
                    # The first split phase may plan and store; the second is a hit.
                    _fresh_equal(system, query)
                    _fresh_equal(system, query)
        finally:
            system.hdfs.persist.close()
