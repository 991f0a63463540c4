"""An index-scanned block does only per-block work.

What is constant per job is bound once per job, what is constant per row set is computed once
per row set, and what is made per block is a slotted record:

- per job, the :class:`~repro.engine.planner.BoundQuery` holds each filter attribute's first
  clause and whether a sorted run may answer it, so no block resolves clause names
  (``Comparison.attribute_name``) or rebinds the query (``BoundQuery.of``);
- per row set, the payload's ``PaxBlock`` keeps the byte sum of every index tuple it was
  asked for (shared by every reorder, as the column sizes are), so a block read again by a
  query shape already seen measures no column (``PaxBlock._column_size_at``);
- per payload, whether the index column holds a value ``<`` does not order is checked once
  (``HailBlock.sort_breaker``), so no block looks it up in its row set
  (``PaxBlock.unordered_value``);
- per block, the executed plan is copied by ``BlockPlan.__copy__`` (no ``copy.copy``
  dispatch), and ``BlockPlan``, ``BlockScanResult`` and ``IndexLookup`` carry no instance
  dictionary.

Bob's five queries run twice on a 16-block deployment; the counts are taken in the map phase
of the second pass, where every block is an index scan.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import fields

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine.access_path import AccessPath, BlockPlan
from repro.engine.executor import VectorizedExecutor
from repro.engine.planner import BoundQuery
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.hail.system import HailSystem
from repro.layouts.pax import PaxBlock
from repro.mapreduce import job_tracker
from repro.query.predicate import Comparison
from repro.workloads import bob_queries

_PATH = "/uv"


def _deploy() -> HailSystem:
    """Bob's deployment: three indexes, 100-row blocks, so 16 blocks."""
    system = HailSystem(
        Cluster.homogeneous(4, seed=5),
        config=HailConfig.for_attributes(("visitDate", "sourceIP", "adRevenue")),
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    rows = UserVisitsGenerator(seed=9).generate(1600)
    system.upload(_PATH, rows, USERVISITS_SCHEMA, rows_per_block=100)
    assert len(system.hdfs.namenode.file_blocks(_PATH)) == 16
    return system


def _count_in_map_phase(monkeypatch, counts: dict, owner, name: str, state: dict) -> None:
    """Count the calls of ``owner.name`` made while a map phase runs into ``counts[name]``."""
    original = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        if state["in_map_phase"]:
            counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _count_copy_calls(monkeypatch, counts: dict, state: dict) -> None:
    """Count ``copy.copy`` calls, through the module and every ``repro`` module binding it."""
    real_copy = copy.copy
    counts["copy.copy"] = 0

    def counted(value):
        if state["in_map_phase"]:
            counts["copy.copy"] += 1
        return real_copy(value)

    monkeypatch.setattr(copy, "copy", counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(module, "copy", None) is real_copy:
            monkeypatch.setattr(module, "copy", counted)


@pytest.fixture(scope="module")
def second_pass():
    """Counts and per-block records from the map phases of a second pass of Bob's queries."""
    system = _deploy()
    for query in bob_queries():  # the first pass: every query shape meets every block once
        system.run_query(query, _PATH)

    monkeypatch = pytest.MonkeyPatch()
    state = {"in_map_phase": False}
    run = job_tracker._MapPhase.run

    def scoped_run(self):
        state["in_map_phase"] = True
        try:
            return run(self)
        finally:
            state["in_map_phase"] = False

    monkeypatch.setattr(job_tracker._MapPhase, "run", scoped_run)
    counts: dict = {}
    _count_in_map_phase(monkeypatch, counts, Comparison, "attribute_name", state)
    _count_in_map_phase(monkeypatch, counts, BoundQuery, "of", state)
    _count_in_map_phase(monkeypatch, counts, PaxBlock, "_column_size_at", state)
    _count_in_map_phase(monkeypatch, counts, PaxBlock, "unordered_value", state)
    _count_copy_calls(monkeypatch, counts, state)
    records: dict = {"scans": [], "lookups": []}
    execute, candidate_rows = VectorizedExecutor.execute, HailBlock.candidate_rows

    def recorded_execute(self, *args, **kwargs):
        scan = execute(self, *args, **kwargs)
        records["scans"].append(scan)
        return scan

    def recorded_candidate_rows(self, clause):
        lookup, used_index = candidate_rows(self, clause)
        records["lookups"].append(lookup)
        return lookup, used_index

    monkeypatch.setattr(VectorizedExecutor, "execute", recorded_execute)
    monkeypatch.setattr(HailBlock, "candidate_rows", recorded_candidate_rows)
    try:
        results = [system.run_query(query, _PATH) for query in bob_queries()]
    finally:
        monkeypatch.undo()
    for result in results:
        assert result.plan.num_blocks == 16
        assert result.plan.count(AccessPath.INDEX_SCAN) == 16
    assert len(records["scans"]) == 5 * 16
    return counts, records


@pytest.mark.parametrize(
    "name", ["attribute_name", "of", "_column_size_at", "unordered_value", "copy.copy"]
)
def test_an_index_scanned_block_rederives_nothing(second_pass, name):
    """No clause lookup, no rebinding, no column measured or checked for order, no generic
    copy: per block, 0."""
    counts, _ = second_pass
    assert counts[name] == 0


def test_the_per_block_records_have_no_instance_dictionary(second_pass):
    _, records = second_pass
    assert len(records["lookups"]) == len(records["scans"])
    for scan, lookup in zip(records["scans"], records["lookups"]):
        assert not hasattr(scan, "__dict__")
        assert not hasattr(scan.plan, "__dict__")
        assert not hasattr(lookup, "__dict__")


def test_a_plan_copy_carries_every_field():
    """``BlockPlan.__copy__`` names each field by hand: a new field it misses fails here."""
    plan = BlockPlan(
        block_id=3,
        access_path=AccessPath.INDEX_SCAN,
        datanode_id=2,
        attribute="visitDate",
        estimated_rows=7.0,
        estimated_bytes=11.0,
        fallback_reason="reason",
        build_attribute="sourceIP",
        build_seconds=0.5,
        index_hosts=(2, 1),
        replica_info=object(),
    )
    copied = copy.copy(plan)
    assert copied is not plan and type(copied) is BlockPlan
    for field in fields(BlockPlan):
        assert getattr(copied, field.name) is getattr(plan, field.name), field.name


def test_a_scanned_block_shares_one_whole_block_lookup():
    """The block scan's lookup is built once per payload, not once per scanned block."""
    system = _deploy()
    block_id = system.hdfs.namenode.file_blocks(_PATH)[0]
    payload = system.hdfs.any_replica(block_id).payload
    assert payload.whole_block_lookup() is payload.whole_block_lookup()
    assert payload.candidate_rows(None) == (payload.whole_block_lookup(), False)
