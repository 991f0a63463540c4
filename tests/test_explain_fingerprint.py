"""Fingerprint of ``system.explain(query, path)``: every query kind, on every system.

Four deployments hold the same two uploads: stock Hadoop, Hadoop++ (trojan index on the join
key), HAIL (clustered index on the join key) and HAIL with zone maps on.  On each, the text of
``explain`` is recorded for a plain scan, a scan whose operand is another type than its column
(which explains, since nothing is executed), a group-by with and without combiner, a join
three ways (planner-chosen, ``strategy="hash"`` and ``strategy="merge"``, which is eligible on
HAIL and renders ``UNPLANNABLE`` on stock Hadoop) and two top-ks, so HAIL's top-k is explained
with and without zone maps.  On the plain HAIL deployment the same cases are explained again
after a node dies, so the fallback plans and the join's changed strategy are pinned too.  The
digest of all rows is pinned: a change to how an operator renders itself above its scans'
plans, or to which plan a scan renders, fails here.
"""

from __future__ import annotations

import hashlib

from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.operators import AggregateSpec, GroupByQuery, JoinQuery, TopKQuery
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.query.predicate import Operator, Predicate, Query

#: Digest of every row below.
EXPECTED_DIGEST = "dd93dd46fb575ff5"
EXPECTED_ROWS = 50

_LEFT = "/explain/left"
_RIGHT = "/explain/right"


def _records(seed: int, count: int) -> list[tuple]:
    """Synthetic rows with f1 folded to a join-key domain and f3 to a small group domain."""
    return [
        (row[0] % 40, row[1], row[2] % 6) + row[3:]
        for row in SyntheticGenerator(seed=seed).generate(count)
    ]


def _systems() -> dict:
    def cost():
        return CostModel(CostParameters(enable_variance=False, data_scale=50.0))

    def hail(**settings):
        config = HailConfig(index_attributes=("f1",), functional_partition_size=1, **settings)
        return HailSystem(Cluster.homogeneous(4, seed=2), config=config, cost=cost())

    systems = {
        "Hadoop": HadoopSystem(Cluster.homogeneous(4, seed=2), cost=cost()),
        "Hadoop++": HadoopPlusPlusSystem(
            Cluster.homogeneous(4, seed=2),
            trojan_attribute="f1",
            cost=cost(),
            functional_partition_size=1,
        ),
        "HAIL": hail(),
        "HAIL+zones": hail(zone_maps=True),
    }
    left, right = _records(seed=21, count=240), _records(seed=22, count=160)
    for system in systems.values():
        system.upload(_LEFT, left, SYNTHETIC_SCHEMA, rows_per_block=40)
        system.upload(_RIGHT, right, SYNTHETIC_SCHEMA, rows_per_block=40)
    return systems


def _cases() -> list[tuple]:
    """``(label, query, path)`` per case, each explained on every deployment."""
    low = Predicate.comparison("f1", Operator.LT, 12)
    wide = Predicate.comparison("f4", Operator.GE, VALUE_RANGE // 3)
    aggregates = (AggregateSpec("count"), AggregateSpec("sum", "f2"), AggregateSpec("avg", "f4"))

    def join(strategy):
        return JoinQuery(
            name=f"j-{strategy}",
            key="f1",
            left_path=_LEFT,
            right_path=_RIGHT,
            left=Query(name="l", predicate=low, projection=("f1", "f2")),
            right=Query(name="r", predicate=None, projection=("f3", "f5")),
            strategy=strategy,
        )

    return [
        ("scan", Query(name="s", predicate=low, projection=("f1", "f2", "f4")), _LEFT),
        ("scan, every column", Query(name="s-all", predicate=wide, projection=None), _RIGHT),
        (
            "scan, operand of another type",
            Query(name="s-str", predicate=Predicate.comparison("f2", Operator.LT, "x"),
                  projection=("f2",)),  # explained, never executed: nothing checks the operand
            _LEFT,
        ),
        ("group-by", GroupByQuery("g", ("f3",), aggregates, predicate=wide), _LEFT),
        (
            "group-by, no combiner",
            GroupByQuery("g-raw", ("f3", "f1"), aggregates[:2], combiner=False),
            _RIGHT,
        ),
        ("join, planner-chosen", join(None), _LEFT),
        ("join, hash", join("hash"), _LEFT),
        ("join, merge", join("merge"), _LEFT),
        ("top-k", TopKQuery("t", order_by="f2", k=5, descending=True), _LEFT),
        (
            "top-k, predicate",
            TopKQuery("t-p", order_by="f4", k=3, predicate=low, projection=("f4", "f1")),
            _RIGHT,
        ),
    ]


def _rows() -> list[tuple]:
    systems, cases = _systems(), _cases()
    rows = [
        (name, label, system.explain(query, path))
        for name, system in systems.items()
        for label, query, path in cases
    ]
    hail = systems["HAIL"]
    namenode = hail.hdfs.namenode
    hail.cluster.kill_node(namenode.hosts_with_index(namenode.file_blocks(_LEFT)[0], "f1")[0])
    rows += [("HAIL, node dead", label, hail.explain(query, path)) for label, query, path in cases]
    return rows


def test_explain_fingerprint_is_unchanged():
    rows = _rows()
    assert len(rows) == EXPECTED_ROWS
    texts = {(name, label): text for name, label, text in rows}
    # Non-vacuous: the merge join is eligible somewhere and refused somewhere, and the kill
    # moved a plan off its indexed replica.
    assert "strategy: merge (co-partitioned" in texts["HAIL", "join, merge"]
    assert "UNPLANNABLE" in texts["Hadoop", "join, merge"]
    assert texts["HAIL", "scan"] != texts["HAIL, node dead", "scan"]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == EXPECTED_DIGEST
