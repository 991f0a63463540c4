"""Stored data is immutable, so it leaves the cyclic garbage collector's working set.

A deployment's stored replicas are most of the process's live objects.  Every PAX minipage
(``PaxBlock.columns``), index directory (``HailIndex.partition_keys``) and text replica
(``TextBlockPayload.lines``) is a tuple of plain values, and CPython stops tracking such a
tuple after the first collection that visits it; a list it tracks, and every full collection
walks, for as long as it lives.  Each path that writes a replica is checked: upload (HAIL and
stock Hadoop), adaptive commit, eviction downgrade, balancer rebuild and a restore from the
SQLite journal.  After ``gc.collect()`` every container it stored must be an untracked tuple.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Optional

import pytest

from repro.api import Session
from repro.baselines import HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.lifecycle import evict_under_pressure
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.hdfs import TextBlockPayload
from repro.mapreduce.counters import Counters
from repro.query.predicate import Operator, Predicate, Query

_PATH = "/immutable/synthetic"


def _cost() -> CostModel:
    return CostModel(CostParameters(enable_variance=False, data_scale=5000.0))


def _records(count: int = 800) -> list[tuple]:
    return SyntheticGenerator(seed=3).generate(count)


def _query(attribute: str = "f1") -> Query:
    return Query(
        name=f"q-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=tuple(SYNTHETIC_SCHEMA.field_names[:9]),
        description="",
    )


def _stored(hdfs, origin: Optional[str] = None) -> dict[str, list]:
    """Every stored container by kind, of the replicas whose ``Dir_rep`` origin is ``origin``
    (all replicas when ``None``)."""
    found: dict[str, list] = {"columns": [], "partition_keys": [], "lines": []}
    for node_id, datanode in hdfs.datanodes.items():
        for block_id in datanode.block_ids():
            info = hdfs.namenode.replica_info(block_id, node_id)
            if origin is not None and getattr(info, "origin", None) != origin:
                continue
            payload = datanode.replica(block_id).payload
            if isinstance(payload, TextBlockPayload):
                found["lines"].append(payload.lines)
                continue
            found["columns"].extend(payload.pax.columns)
            if payload.index is not None:
                found["partition_keys"].append(payload.index.partition_keys)
    return found


def _census(hdfs, origin: Optional[str] = None) -> dict[str, tuple[int, int]]:
    """``kind -> (stored, not an untracked tuple)`` after a full collection."""
    gc.collect()
    return {
        kind: (
            len(containers),
            sum(type(c) is not tuple or gc.is_tracked(c) for c in containers),
        )
        for kind, containers in _stored(hdfs, origin).items()
        if containers
    }


def _assert_out_of_gc(census: dict[str, tuple[int, int]], kinds: tuple[str, ...]) -> None:
    assert set(kinds) <= set(census), f"the path stored no {set(kinds) - set(census)}"
    assert {kind: bad for kind, (_, bad) in census.items()} == dict.fromkeys(census, 0)


def test_uploaded_replicas_are_untracked_tuples():
    config = HailConfig(
        index_attributes=("f1", "f2"), replication=3, functional_partition_size=1
    )
    hail = HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=_cost())
    hail.upload(_PATH, _records(), SYNTHETIC_SCHEMA, rows_per_block=100)
    hadoop = HadoopSystem(Cluster.homogeneous(4, seed=7), cost=_cost())
    hadoop.upload(_PATH, _records(), SYNTHETIC_SCHEMA, rows_per_block=100)

    _assert_out_of_gc(_census(hail.hdfs), ("columns", "partition_keys"))
    _assert_out_of_gc(_census(hadoop.hdfs), ("lines",))
    # Partition size 1: the directory holds one key per row, as large as a minipage.
    keys = _stored(hail.hdfs)["partition_keys"]
    assert sum(map(len, keys)) == 800 * 2  # two indexed replicas of every row


@pytest.fixture(scope="module")
def lifecycle_census() -> dict[str, dict[str, tuple[int, int]]]:
    """The census after each lifecycle step of one deployment: converge with adaptive
    commits, kill the heaviest node, storm-evict (downgrades), recover by rebuilds."""
    config = HailConfig(
        index_attributes=(),
        replication=3,
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        index_aware_scheduling=True,
        placement_balancer=True,
        placement_rebuilds_per_job=4,
    )
    system = HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=_cost())
    system.upload(_PATH, _records(), SYNTHETIC_SCHEMA, rows_per_block=100)
    census = {}
    for _ in range(3):
        system.run_query(_query(), _PATH)
    census["adaptive commit"] = _census(system.hdfs, origin="adaptive")

    footprints = system.hdfs.namenode.adaptive_bytes_by_node()
    victim = max(sorted(footprints), key=lambda node_id: footprints[node_id])
    system.cluster.kill_node(victim)
    storm = DiskPressurePolicy(
        capacity_bytes=max(footprints.values()) * 0.4, high_watermark=0.5, low_watermark=0.4
    )
    evict_under_pressure(system.hdfs, storm)
    census["eviction downgrade"] = _census(system.hdfs, origin="evicted")

    system.config = dataclasses.replace(system.config, adaptive_offer_rate=0.0)
    rebuilt = 0
    for _ in range(5):
        result = system.run_query(_query(), _PATH)
        rebuilt += result.job.counters.value(Counters.PLACEMENT_REREPLICATED)
    assert rebuilt > 0, "the balancer rebuilt nothing"
    census["balancer rebuild"] = _census(system.hdfs, origin="adaptive")
    return census


@pytest.mark.parametrize(
    "step, kinds",
    [
        ("adaptive commit", ("columns", "partition_keys")),
        ("eviction downgrade", ("columns",)),
        ("balancer rebuild", ("columns", "partition_keys")),
    ],
)
def test_lifecycle_writes_are_untracked_tuples(lifecycle_census, step, kinds):
    _assert_out_of_gc(lifecycle_census[step], kinds)


def test_sqlite_restore_writes_untracked_tuples(tmp_path):
    config = (
        HailConfig.for_attributes(("f2",), functional_partition_size=1)
        .with_adaptive(True, offer_rate=1.0)
        .with_persistence("sqlite", directory=str(tmp_path))
    )
    session = Session.deploy(nodes=4, hail_config=config)
    session.upload(_PATH, _records(400), SYNTHETIC_SCHEMA, rows_per_block=100)
    session.run(_query(), path=_PATH)
    session.checkpoint()
    session.system().hdfs.persist.close()

    restored = Session.restore(config, nodes=4)
    try:
        hdfs = restored.system().hdfs
        _assert_out_of_gc(_census(hdfs), ("columns", "partition_keys"))
        assert _census(hdfs, origin="adaptive")  # the adaptive pool came back too
    finally:
        restored.system().hdfs.persist.close()
