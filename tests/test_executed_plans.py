"""A query result explains what it executed, whatever the query kind.

Every kind lowers to one :class:`~repro.mapreduce.job.Lowering`, which renders the operator's
``EXPLAIN`` over one plan per scan.  ``system.explain`` renders it over the split phase's
plans; a :class:`~repro.systems.base.QueryResult` frames the plans its scan jobs executed
(``JobResult.plan``), or the block plans a scan-less top-k probed.  Three kinds of test:

- **call-count guard** — a join's lowering walks ``co_partitioned`` once, whether the join is
  explained or run, on every system and strategy;
- **executed plans** — a group-by run under a node failure renders its header above the plan
  its job executed (fallbacks included), a join renders both sides' executed plans, a HAIL
  top-k holds one block plan per block its probe planned, and a plain scan's plan is its job's;
- **every kind, every system** — a run result's rendering opens with the same operator header
  as the pre-run ``explain`` and never reads "not captured".
"""

from __future__ import annotations

from textwrap import indent

import pytest

import repro.engine.operators.join as join_module
from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters
from repro.cluster.failure import FailureEvent
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, SyntheticGenerator
from repro.engine.operators import AggregateSpec, GroupByQuery, JoinQuery, TopKQuery
from repro.engine.planner import PhysicalPlanner, QueryPlan
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.mapreduce.counters import Counters
from repro.query.predicate import Operator, Predicate, Query

_LEFT = "/plans/left"
_RIGHT = "/plans/right"
_LOW = Predicate.comparison("f1", Operator.LT, 15)


def _records(seed: int, count: int) -> list[tuple]:
    """Rows with f1 folded to a join-key domain and f3 to a small group domain, sorted on f2
    so that each block's f2 zone range is disjoint from the others' (top-k skips blocks)."""
    rows = [
        (row[0] % 40, row[1], row[2] % 6) + row[3:]
        for row in SyntheticGenerator(seed=seed).generate(count)
    ]
    return sorted(rows, key=lambda row: row[1])


def _deploy(system):
    system.upload(_LEFT, _records(31, 320), SYNTHETIC_SCHEMA, rows_per_block=40)
    system.upload(_RIGHT, _records(32, 160), SYNTHETIC_SCHEMA, rows_per_block=40)
    return system


def _cost() -> CostModel:
    return CostModel(CostParameters(enable_variance=False, data_scale=50.0))


def _hail() -> HailSystem:
    config = HailConfig(index_attributes=("f1",), functional_partition_size=1)
    return _deploy(HailSystem(Cluster.homogeneous(4, seed=3), config=config, cost=_cost()))


def _systems() -> dict:
    return {
        "Hadoop": _deploy(HadoopSystem(Cluster.homogeneous(4, seed=3), cost=_cost())),
        "Hadoop++": _deploy(
            HadoopPlusPlusSystem(
                Cluster.homogeneous(4, seed=3),
                trojan_attribute="f1",
                cost=_cost(),
                functional_partition_size=1,
            )
        ),
        "HAIL": _hail(),
    }


def _join(strategy=None) -> JoinQuery:
    return JoinQuery(
        name=f"j-{strategy}",
        key="f1",
        left_path=_LEFT,
        right_path=_RIGHT,
        left=Query(name="l", predicate=_LOW, projection=("f1", "f2")),
        right=Query(name="r", predicate=None, projection=("f3",)),
        strategy=strategy,
    )


def _group_by() -> GroupByQuery:
    return GroupByQuery(
        "g", ("f3",), (AggregateSpec("count"), AggregateSpec("sum", "f2")), predicate=_LOW
    )


def _top_k() -> TopKQuery:
    return TopKQuery("t", order_by="f2", k=4, descending=True, projection=("f2", "f1"))


# --------------------------------------------------------------------------- call-count guard
def test_a_join_lowering_walks_co_partitioned_once_explained_or_run(monkeypatch):
    walks = []
    walk = join_module.co_partitioned

    def counting(system, query):
        walks.append(query.name)
        return walk(system, query)

    monkeypatch.setattr(join_module, "co_partitioned", counting)
    systems = _systems()
    for name, system in systems.items():
        strategies = (None, "hash", "merge") if name != "Hadoop" else (None, "hash")
        for strategy in strategies:
            query = _join(strategy)
            for step in (system.explain, system.run_query):
                walks.clear()
                step(query, _LEFT)
                assert walks == [query.name], (name, strategy, step.__name__)
    # A refused merge is one walk too, explained (UNPLANNABLE) or run (refused before any job).
    hadoop = systems["Hadoop"]
    walks.clear()
    assert "UNPLANNABLE" in hadoop.explain(_join("merge"), _LEFT)
    with pytest.raises(ValueError, match="co-partitioned"):
        hadoop.run_query(_join("merge"), _LEFT)
    assert walks == ["j-merge", "j-merge"]


# --------------------------------------------------------------------------- executed plans
def test_a_group_by_under_failure_renders_the_plan_its_job_executed():
    system = _hail()
    query = _group_by()
    before = system.explain(query, _LEFT)
    namenode = system.hdfs.namenode
    dead = namenode.hosts_with_index(namenode.file_blocks(_LEFT)[0], "f1")[0]
    failure = FailureEvent(node_id=dead, at_progress=0.0, expiry_interval_s=1.0)
    result = system.run_query(query, _LEFT, failure=failure)
    assert result.plan.plans == [result.job.plan]
    header = before.split("\n  QueryPlan")[0]
    assert header.startswith("GroupByAggregate 'g'")
    text = result.explain()
    assert text == header + "\n" + indent(result.job.plan.explain(), "  ")
    assert f"lost (dn{dead} dead)" in text  # the fallback blocks the attempts really ran
    assert text != before


def test_a_join_renders_both_sides_executed_plans():
    system = _hail()
    for strategy in ("merge", "hash"):
        result = system.run_query(_join(strategy), _LEFT)
        left, right = result.plan.plans
        assert (left.path, right.path) == (_LEFT, _RIGHT)
        executed = {
            id(plan) for attempt in result.job.task_results for plan in attempt.result.block_plans
        }
        for plan, path in ((left, _LEFT), (right, _RIGHT)):
            assert [block.block_id for block in plan.block_plans] == (
                system.hdfs.namenode.file_blocks(path)
            )
            assert all(id(block) in executed for block in plan.block_plans)
        text = result.explain()
        assert text.startswith(f"Join 'j-{strategy}'") and f"strategy: {strategy}" in text
        assert f"  left side:\n{indent(left.explain(), '    ')}" in text
        assert f"  right side:\n{indent(right.explain(), '    ')}" in text


def test_a_hail_top_k_holds_one_block_plan_per_block_its_probe_planned(monkeypatch):
    system = _hail()
    planned = []
    plan_block = PhysicalPlanner.plan_block

    def recording(self, block_id, *args, **kwargs):
        planned.append(block_id)
        return plan_block(self, block_id, *args, **kwargs)

    monkeypatch.setattr(PhysicalPlanner, "plan_block", recording)
    result = system.run_query(_top_k(), _LEFT)
    (plan,) = result.plan.plans
    assert plan is result.job.plan and isinstance(plan, QueryPlan)
    assert [block.block_id for block in plan.block_plans] == planned
    # The threshold skipped blocks unread: they were never planned, and have no plan.
    blocks = system.hdfs.namenode.file_blocks(_LEFT)
    skipped = result.job.counters.value(Counters.TOPK_BLOCKS_SKIPPED)
    assert skipped > 0 and len(planned) == len(blocks) - skipped
    assert result.explain().startswith("TopK 't'")
    assert result.explain().endswith(indent(plan.explain(), "  "))


def test_a_plain_scan_result_carries_its_jobs_plan():
    system = _hail()
    result = system.run_query(Query(name="s", predicate=_LOW, projection=("f1",)), _LEFT)
    assert result.plan is result.job.plan
    assert result.explain() == result.job.plan.explain()


# --------------------------------------------------------------------------- every kind
@pytest.mark.parametrize("name", ["Hadoop", "Hadoop++", "HAIL"])
def test_every_kind_run_explains_what_it_executed(name):
    system = _systems()[name]
    queries = [
        Query(name="s", predicate=_LOW, projection=("f1", "f2")),
        _group_by(),
        _join(),
        _join("hash"),
        _top_k(),
    ]
    for query in queries:
        before = system.explain(query, _LEFT)
        text = system.run_query(query, _LEFT).explain()
        assert "not captured" not in text
        assert text.splitlines()[0] == before.splitlines()[0], query.name
