"""Per-block planning and execution do no work a block does not need.

Two call-count guards on Bob's five queries over a fault-free HAIL deployment:

- the plan a reader executes is a copy of the split phase's (the executor relabels it in
  place), made without re-running ``BlockPlan.__init__`` — so ``dataclasses.replace``, which
  does, is not used per executed block either — and the split phase builds its plans once per
  query shape and layout epoch;
- planning a block fetches its alive holders once: the ``getHostsWithIndex`` walk filters the
  list ``_plan_block`` already holds against ``Dir_rep`` instead of asking ``Dir_block`` again
  per filter attribute.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine.access_path import BlockPlan
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.hdfs.namenode import NameNode
from repro.workloads import bob_queries

_PATH = "/uv"


def _deploy() -> HailSystem:
    system = HailSystem(
        Cluster.homogeneous(4, seed=5),
        config=HailConfig.for_attributes(("visitDate", "sourceIP", "adRevenue")),
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    rows = UserVisitsGenerator(seed=9).generate(1600)
    system.upload(_PATH, rows, USERVISITS_SCHEMA, rows_per_block=100)
    return system


@pytest.fixture(scope="module")
def system() -> HailSystem:
    return _deploy()


def _calls_per_job(system: HailSystem, monkeypatch, owner, name: str) -> list[int]:
    """How often each of Bob's queries calls ``owner.name``, one count per job."""
    original = getattr(owner, name)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    per_job = []
    for query in bob_queries():
        count[0] = 0
        result = system.run_query(query, _PATH)
        assert result.plan.num_index_scans == result.plan.num_blocks
        per_job.append(count[0])
    return per_job


def test_executed_plans_are_copied_without_init(monkeypatch):
    """One ``BlockPlan.__init__`` per block per query shape and layout epoch (the split
    phase's plan), none per execution: on a fresh deployment Bob-Q5 reuses Bob-Q4's plans,
    and a second pass of the five queries on the unchanged deployment builds no plan at all."""
    system = _deploy()
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    assert _calls_per_job(system, monkeypatch, BlockPlan, "__init__") == [num_blocks] * 4 + [0]
    assert _calls_per_job(system, monkeypatch, BlockPlan, "__init__") == [0] * 5


def test_one_alive_host_list_per_planned_block(system, monkeypatch):
    """At most two ``block_datanodes`` calls per block: ``block_locations``'s and
    ``_plan_block``'s."""
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    per_job = _calls_per_job(system, monkeypatch, NameNode, "block_datanodes")
    assert all(calls <= 2 * num_blocks for calls in per_job), per_job
