"""Differential conformance for the relational operators: all three systems must agree.

Grouped aggregation, equi-joins and ranked top-k run through stock Hadoop, Hadoop++ and HAIL
(and, where applicable, both kernel backends) over the same datasets; every result must be
bit-identical to an independent brute-force evaluation in plain Python.  The operators take
radically different physical routes per system — combined vs uncombined shuffles, merge vs
hash joins, early-terminated vs full scans — which is exactly why the answers must not.
"""

from __future__ import annotations

import collections

import pytest

from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine import kernels
from repro.engine.operators import (
    AggregateSpec,
    GroupByQuery,
    JoinQuery,
    TopKQuery,
    choose_strategy,
    execute,
)
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.mapreduce.counters import Counters
from repro.query.predicate import Operator, Predicate, Query

_LEFT = "/diff/left"
_RIGHT = "/diff/right"
_ROWS_PER_BLOCK = 40
#: Join keys folded into a small domain so the two sides actually match; group keys folded
#: smaller still so groups span blocks (which is what exercises combiner merge paths).
_KEY_DOMAIN = 50
_GROUP_DOMAIN = 7


def _cost():
    return CostModel(CostParameters(enable_variance=False, data_scale=50.0))


def _records(seed: int, count: int) -> list[tuple]:
    """Synthetic records with f1 folded to the join-key domain and f3 to the group domain."""
    raw = SyntheticGenerator(seed=seed).generate(count)
    return [
        (rec[0] % _KEY_DOMAIN, rec[1], rec[2] % _GROUP_DOMAIN) + rec[3:] for rec in raw
    ]


def _backends() -> list[str]:
    return ["python"] + (["numpy"] if kernels.HAVE_NUMPY else [])


@pytest.fixture(scope="module")
def deployments():
    """Two datasets uploaded into all three systems (f1 indexed/trojan'd everywhere possible)."""
    left = _records(seed=11, count=240)
    right = _records(seed=12, count=120)
    systems = {
        "Hadoop": HadoopSystem(Cluster.homogeneous(3, seed=2), cost=_cost()),
        "Hadoop++": HadoopPlusPlusSystem(
            Cluster.homogeneous(3, seed=2),
            trojan_attribute="f1",
            cost=_cost(),
            functional_partition_size=1,
        ),
        "HAIL": HailSystem(
            Cluster.homogeneous(3, seed=2),
            config=HailConfig(index_attributes=("f1",), functional_partition_size=1),
            cost=_cost(),
        ),
    }
    for system in systems.values():
        system.upload(_LEFT, left, SYNTHETIC_SCHEMA, rows_per_block=_ROWS_PER_BLOCK)
        system.upload(_RIGHT, right, SYNTHETIC_SCHEMA, rows_per_block=_ROWS_PER_BLOCK)
    return systems, left, right


# --------------------------------------------------------------------------- brute force
def _brute_group_by(records, keys, aggregates, predicate=None):
    groups = collections.defaultdict(list)
    key_pos = [SYNTHETIC_SCHEMA.index_of(k) for k in keys]
    for rec in records:
        if predicate is not None and not predicate.matches(rec, SYNTHETIC_SCHEMA):
            continue
        groups[tuple(rec[p] for p in key_pos)].append(rec)
    rows = []
    for key, members in groups.items():
        out = list(key)
        for spec in aggregates:
            if spec.func == "count":
                out.append(len(members))
                continue
            values = [m[SYNTHETIC_SCHEMA.index_of(spec.attribute)] for m in members]
            if spec.func == "sum":
                out.append(sum(values))
            elif spec.func == "min":
                out.append(min(values))
            elif spec.func == "max":
                out.append(max(values))
            else:
                out.append(sum(values) / len(values))
        rows.append(tuple(out))
    return sorted(rows, key=repr)


def _brute_join(left, right, key, left_cols, right_cols, left_pred=None, right_pred=None):
    kp = SYNTHETIC_SCHEMA.index_of(key)
    lp = [SYNTHETIC_SCHEMA.index_of(c) for c in left_cols]
    rp = [SYNTHETIC_SCHEMA.index_of(c) for c in right_cols]
    lrows = [r for r in left if left_pred is None or left_pred.matches(r, SYNTHETIC_SCHEMA)]
    rrows = [r for r in right if right_pred is None or right_pred.matches(r, SYNTHETIC_SCHEMA)]
    rows = [
        (a[kp],) + tuple(a[p] for p in lp) + tuple(b[p] for p in rp)
        for b in rrows
        for a in lrows
        if a[kp] == b[kp]
    ]
    return sorted(rows, key=repr)


def _brute_top_k(records, order_by, k, descending, predicate=None, projection=None):
    oi = SYNTHETIC_SCHEMA.index_of(order_by)
    rows = [r for r in records if predicate is None or predicate.matches(r, SYNTHETIC_SCHEMA)]
    rows = sorted(sorted(rows, key=repr), key=lambda r: r[oi], reverse=descending)[:k]
    if projection is None:
        return rows
    pos = [SYNTHETIC_SCHEMA.index_of(c) for c in projection]
    return [tuple(r[p] for p in pos) for r in rows]


# --------------------------------------------------------------------------- group by
def test_group_by_agrees_across_systems_and_backends(deployments, monkeypatch):
    """Grouped aggregation (all five functions) is bit-identical everywhere."""
    monkeypatch.setattr(kernels, "_NUMPY_MIN_ROWS", 0)  # numpy on every window, narrow ones too
    systems, left, _ = deployments
    specs = tuple(
        AggregateSpec.parse(s) for s in ("count(*)", "sum(f2)", "min(f2)", "max(f2)", "avg(f2)")
    )
    predicate = Predicate.comparison("f4", Operator.LT, VALUE_RANGE // 2)
    query = GroupByQuery(name="g-diff", keys=("f3",), aggregates=specs, predicate=predicate)
    expected = _brute_group_by(left, ("f3",), specs, predicate)
    assert expected, "degenerate test: the predicate filtered everything out"
    for name, system in systems.items():
        for backend in _backends():
            with kernels.use_backend(backend):
                result = execute(system, query, _LEFT)
            assert result.records == expected, (name, backend)


def test_group_by_combiner_off_is_bit_identical(deployments):
    """The combiner is a pure shuffle optimization: on/off changes counters, never rows."""
    systems, _, _ = deployments
    specs = (AggregateSpec.parse("count(*)"), AggregateSpec.parse("avg(f2)"))
    on = GroupByQuery(name="g-on", keys=("f3",), aggregates=specs, combiner=True)
    off = GroupByQuery(name="g-off", keys=("f3",), aggregates=specs, combiner=False)
    for name, system in systems.items():
        with_combiner = execute(system, on, _LEFT)
        without = execute(system, off, _LEFT)
        assert with_combiner.records == without.records, name
        on_counters = with_combiner.job.counters
        assert on_counters.value(Counters.COMBINE_INPUT_RECORDS) > 0
        # Folded group keys mean every map task holds multi-row groups: combining shrinks.
        assert on_counters.value(Counters.COMBINE_OUTPUT_RECORDS) < on_counters.value(
            Counters.COMBINE_INPUT_RECORDS
        )
        assert on_counters.value(Counters.SHUFFLE_BYTES_SAVED) > 0
        assert without.job.counters.value(Counters.COMBINE_INPUT_RECORDS) == 0


# --------------------------------------------------------------------------- join
def test_join_agrees_across_systems(deployments):
    """Merge (HAIL/Hadoop++) and hash (Hadoop) joins return the same rows as brute force."""
    systems, left, right = deployments
    left_pred = Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 2)
    query = JoinQuery(
        name="j-diff",
        key="f1",
        left_path=_LEFT,
        right_path=_RIGHT,
        left=Query(name="l", predicate=left_pred, projection=("f1", "f2")),
        right=Query(name="r", predicate=None, projection=("f1", "f3")),
    )
    expected = _brute_join(left, right, "f1", ("f2",), ("f3",), left_pred=left_pred)
    assert expected, "degenerate test: no join matches"
    for name, system in systems.items():
        result = execute(system, query, _LEFT)
        assert result.records == expected, name
        counters = result.job.counters
        assert counters.value(Counters.JOIN_OUTPUT_RECORDS) == len(expected), name
        if name == "Hadoop":
            assert choose_strategy(system, query) == "hash"
            assert counters.value(Counters.JOIN_HASH_JOINS) == 1
        else:
            # f1 is indexed (HAIL) / trojan'd (Hadoop++) on every block of both sides.
            assert choose_strategy(system, query) == "merge"
            assert counters.value(Counters.JOIN_MERGE_JOINS) == 1


def test_forced_strategies(deployments):
    """strategy='hash' is always legal and identical; forcing 'merge' without indexes raises."""
    systems, left, right = deployments
    base = dict(
        key="f1",
        left_path=_LEFT,
        right_path=_RIGHT,
        left=Query(name="l", predicate=None, projection=("f1", "f2")),
        right=Query(name="r", predicate=None, projection=("f1", "f3")),
    )
    expected = _brute_join(left, right, "f1", ("f2",), ("f3",))
    forced_hash = execute(
        systems["HAIL"], JoinQuery(name="j-hash", strategy="hash", **base), _LEFT
    )
    assert forced_hash.records == expected
    assert forced_hash.job.counters.value(Counters.JOIN_HASH_JOINS) == 1
    with pytest.raises(ValueError, match="not.*co-partitioned|co-partitioned"):
        execute(systems["Hadoop"], JoinQuery(name="j-merge", strategy="merge", **base), _LEFT)
    with pytest.raises(ValueError, match="unknown join strategy"):
        JoinQuery(name="j-bad", strategy="sideways", **base)


def test_join_explain_names_strategy(deployments):
    """explain() shows the chosen strategy and both sides' physical plans."""
    systems, _, _ = deployments
    query = JoinQuery(
        name="j-exp",
        key="f1",
        left_path=_LEFT,
        right_path=_RIGHT,
        left=Query(name="l", predicate=None, projection=("f1", "f2")),
        right=Query(name="r", predicate=None, projection=("f1", "f3")),
    )
    hail = systems["HAIL"].explain(query, _LEFT)
    assert "strategy: merge" in hail and "left side:" in hail and "right side:" in hail
    assert "JOIN" in hail  # the SQL rendering
    hadoop = systems["Hadoop"].explain(query, _LEFT)
    assert "strategy: hash" in hadoop


# --------------------------------------------------------------------------- top-k
def test_top_k_agrees_across_systems_and_backends(deployments, monkeypatch):
    """Ascending/descending ranked top-k matches brute force on every system and backend."""
    monkeypatch.setattr(kernels, "_NUMPY_MIN_ROWS", 0)  # numpy on every window, narrow ones too
    systems, left, _ = deployments
    predicate = Predicate.comparison("f4", Operator.GE, VALUE_RANGE // 4)
    for descending in (True, False):
        query = TopKQuery(
            name=f"t-{'d' if descending else 'a'}",
            order_by="f2",
            k=7,
            descending=descending,
            predicate=predicate,
            projection=("f2", "f3"),
        )
        expected = _brute_top_k(left, "f2", 7, descending, predicate, ("f2", "f3"))
        for name, system in systems.items():
            for backend in _backends():
                with kernels.use_backend(backend):
                    result = execute(system, query, _LEFT)
                assert result.records == expected, (name, backend, descending)


def test_top_k_accounts_for_every_block(deployments):
    """Block-wise top-k classifies each block as read or skipped — none fall through."""
    systems, _, _ = deployments
    query = TopKQuery(name="t-blocks", order_by="f2", k=3, descending=True)
    for name in ("HAIL", "Hadoop++"):
        system = systems[name]
        num_blocks = len(system.hdfs.namenode.file_blocks(_LEFT))
        counters = execute(system, query, _LEFT).job.counters
        read = counters.value(Counters.TOPK_BLOCKS_READ)
        skipped = counters.value(Counters.TOPK_BLOCKS_SKIPPED)
        assert read + skipped == num_blocks, name
    # Stock Hadoop has no block-wise path: the fallback reads everything.
    hadoop = systems["Hadoop"]
    counters = execute(hadoop, query, _LEFT).job.counters
    assert counters.value(Counters.TOPK_BLOCKS_READ) == len(
        hadoop.hdfs.namenode.file_blocks(_LEFT)
    )
    assert counters.value(Counters.TOPK_BLOCKS_SKIPPED) == 0


def test_top_k_ties_break_deterministically(deployments):
    """Rows tied on the order attribute surface in repr order on every system."""
    systems, left, _ = deployments
    # f3 was folded to a tiny domain, so k far exceeds the distinct values: all ties.
    query = TopKQuery(name="t-ties", order_by="f3", k=9, descending=True)
    expected = _brute_top_k(left, "f3", 9, True)
    results = {name: execute(s, query, _LEFT).records for name, s in systems.items()}
    for name, records in results.items():
        assert records == expected, name


def test_top_k_explain_shows_bounds(deployments):
    """explain() reports zone-range bound coverage and the threshold pushdown clause."""
    systems, _, _ = deployments
    query = TopKQuery(name="t-exp", order_by="f2", k=5, descending=True)
    text = systems["HAIL"].explain(query, _LEFT)
    assert "ORDER BY f2 DESC LIMIT 5" in text
    assert "zone-range bounds:" in text and "threshold pushdown" in text
