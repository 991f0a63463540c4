"""HAIL charges a block with bound arithmetic: per-job constants are not derived per block.

The executing node's CPU and disk models bind their query-side divisors when they are built
(:class:`~repro.cluster.cpu.CpuModel`, :class:`~repro.cluster.disk.DiskModel`, both cached once
per hardware profile by the :class:`~repro.cluster.costmodel.CostModel`), and the executor
binds the data scale and the RecordReader setup seconds once per executor.  Per block, the
executor looks up the read columns' byte sum once (``PaxBlock.indexed_size_bytes``: summed
once per row set and index tuple) and hands it to zone pruning, the zone-map skip and both
block charges (the scan and the adaptive-savings counterfactual).  These tests count the
calls that used to re-derive those constants on every block.
"""

from __future__ import annotations

import builtins
from dataclasses import replace

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.cluster.cpu import CpuModel
from repro.cluster.disk import DiskModel
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine.access_path import AccessPath
from repro.engine.executor import VectorizedExecutor
from repro.engine.planner import BoundQuery
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.layouts.pax import PaxBlock
from repro.mapreduce import job_tracker
from repro.mapreduce.counters import Counters
from repro.query.annotation import HailQuery
from repro.query.predicate import Predicate, Query
from repro.workloads import bob_queries

_PATH = "/uv"
_BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")
_ROWS = 1600

#: Bob-Q1: an index scan on ``visitDate`` on every block.
_INDEX_SCAN = bob_queries()[0]
#: A filter on ``duration``, which no replica is sorted on: a PAX projection scan per block.
_PROJECTION_SCAN = Query(
    name="duration-scan",
    predicate=Predicate.between("duration", 1, 3),
    projection=("searchWord", "adRevenue"),
)

#: What re-derived a per-job constant on every block before the charge was bound.
_UNBOUND = (
    (CpuModel, "_speed"),
    (CpuModel, "_per_bytes"),
    (CpuModel, "_per_rows"),
    (DiskModel, "seek"),
    (CostModel, "scale_bytes"),
    (CostModel, "scale_count"),
)


def _bob_system() -> HailSystem:
    """Bob's deployment with zone maps on: 100-row blocks, so 16 blocks."""
    config = replace(HailConfig.for_attributes(_BOB_INDEXES).with_zone_maps(), partition_size=10)
    system = HailSystem(
        Cluster.homogeneous(4, seed=5),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False, data_scale=64.0)),
    )
    system.upload(_PATH, _rows(), USERVISITS_SCHEMA, rows_per_block=100)
    return system


def _rows() -> list[tuple]:
    return UserVisitsGenerator(seed=9).generate(_ROWS)


def _brute_force(query: Query) -> list[tuple]:
    schema = USERVISITS_SCHEMA
    positions = [schema.index_of(name) for name in query.projection]
    return sorted(
        tuple(row[i] for i in positions) for row in _rows() if query.predicate.matches(row, schema)
    )


@pytest.fixture(scope="module")
def system() -> HailSystem:
    return _bob_system()


def _run(system: HailSystem, query: Query, path: AccessPath):
    """Run ``query``, check its answer and that every block took ``path`` or a zone-map skip."""
    result = system.run_query(query, _PATH)
    assert sorted(result.records) == _brute_force(query)
    paths = {plan.access_path for plan in result.plan.block_plans}
    assert path in paths and paths <= {path, AccessPath.ZONE_MAP_SKIP}, paths
    assert result.plan.num_blocks == _ROWS // 100
    return result


def _map_phase_counter(monkeypatch) -> dict:
    """Call counters of :data:`_UNBOUND` that count only while a map phase runs."""
    state = {"in_map_phase": False}
    counts: dict = {}
    run = job_tracker._MapPhase.run

    def scoped_run(self):
        state["in_map_phase"] = True
        try:
            return run(self)
        finally:
            state["in_map_phase"] = False

    monkeypatch.setattr(job_tracker._MapPhase, "run", scoped_run)
    for owner, name in _UNBOUND:
        key = f"{owner.__name__}.{name}"
        counts[key] = 0
        original = getattr(owner, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            if state["in_map_phase"]:
                counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize(
    "query, path",
    [(_INDEX_SCAN, AccessPath.INDEX_SCAN), (_PROJECTION_SCAN, AccessPath.PAX_PROJECTION_SCAN)],
    ids=["index-scan", "pax-projection-scan"],
)
def test_the_map_phase_derives_no_per_job_constant(system, query, path, monkeypatch):
    """No block re-derives a core speed, a byte divisor, a seek or a data-scale product."""
    counts = _map_phase_counter(monkeypatch)
    _run(system, query, path)
    assert counts == dict.fromkeys(counts, 0)


@pytest.mark.parametrize(
    "query, path",
    [(_INDEX_SCAN, AccessPath.INDEX_SCAN), (_PROJECTION_SCAN, AccessPath.PAX_PROJECTION_SCAN)],
    ids=["index-scan", "pax-projection-scan"],
)
def test_execute_imports_nothing(system, query, path, monkeypatch):
    """``VectorizedExecutor.execute`` runs no ``import`` statement on any block."""
    imports = []
    inside = {"depth": 0}
    real_import = builtins.__import__
    execute = VectorizedExecutor.execute

    def counted_import(name, *args, **kwargs):
        if inside["depth"]:
            imports.append(name)
        return real_import(name, *args, **kwargs)

    def scoped_execute(self, *args, **kwargs):
        inside["depth"] += 1
        try:
            return execute(self, *args, **kwargs)
        finally:
            inside["depth"] -= 1

    monkeypatch.setattr(VectorizedExecutor, "execute", scoped_execute)
    monkeypatch.setattr(builtins, "__import__", counted_import)
    _run(system, query, path)
    monkeypatch.undo()
    assert imports == []


@pytest.mark.parametrize(
    "query, path",
    [(_INDEX_SCAN, AccessPath.INDEX_SCAN), (_PROJECTION_SCAN, AccessPath.PAX_PROJECTION_SCAN)],
    ids=["index-scan", "pax-projection-scan"],
)
def test_the_read_columns_are_summed_once_per_row_set(query, path, monkeypatch):
    """With zone maps on, pruning and the charge share one sum of the read columns' bytes, and
    the sum is made once per row set and index tuple: the first run sums each block's read
    columns once (a block's replicas share one row set), a second run sums nothing."""
    system = _bob_system()  # afresh: no earlier test has read its blocks
    schema = system.schema_of(_PATH)
    annotation = HailQuery(filter=query.predicate, projection=query.projection)
    read_indexes = BoundQuery.bind(annotation, schema).read_indexes(pax_layout=True)
    sums = []
    indexed_size_bytes = PaxBlock.indexed_size_bytes

    def counted(self, indexes):
        if indexes not in self._index_sums:  # a sum, not a lookup
            sums.append((id(self._index_sums), indexes))
        return indexed_size_bytes(self, indexes)

    monkeypatch.setattr(PaxBlock, "indexed_size_bytes", counted)
    result = _run(system, query, path)
    # Zone pruning ran and needed the sum.
    assert result.job.counters.value(Counters.ZONE_MAP_PRUNED_BYTES) > 0
    read_sums = [entry for entry in sums if entry[1] == read_indexes]
    assert len(read_sums) == len(set(read_sums)) == result.plan.num_blocks
    sums.clear()
    _run(system, query, path)
    monkeypatch.undo()
    assert sums == []
