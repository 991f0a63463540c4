"""Operator benchmarks: what the HAIL layout buys the three relational operators (extension).

The operator subsystem (:mod:`repro.engine.operators`) claims three wins, each rooted in a
different piece of what the paper's storage layer already maintains:

1. **combiner** — grouped aggregation with the map-side combiner installed shuffles one
   partial pair per (map task, group) instead of one pair per record.  Both variants run the
   same ``GROUP BY`` on the same HAIL deployment; the curve reports the shuffled-pair counts
   and ``benchmarks/test_operators_curve.py`` requires the reduction to clear 2x.
2. **join** — on co-partitioned sides (every block of both paths carries a replica indexed on
   the join key) the planner picks the shuffle-free merge join; the same query forced to
   ``strategy="hash"`` pays the full shuffle.  The curve carries both simulated runtimes.
3. **topk** — ``ORDER BY ... LIMIT k`` visits blocks best-first by their ``Dir_rep`` zone
   ranges and stops opening payloads once the running k-th value proves the rest empty.  On
   rank-sorted data most blocks are skipped; the same test requires the blocks-read fraction
   to stay under 50%.

Every variant is cross-checked against an independent brute-force evaluation of the same
operator in plain Python — a speedup that changes the answer is a bug, not a win — and the
verdicts travel in the rows as ``results_identical`` flags the test refuses.
"""

from __future__ import annotations

import collections
from typing import Optional

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, SyntheticGenerator
from repro.engine.operators import (
    AggregateSpec,
    GroupByQuery,
    JoinQuery,
    TopKQuery,
    choose_strategy,
    execute,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.hail import HailConfig, HailSystem
from repro.mapreduce.counters import Counters
from repro.workloads.query import Query

#: Columns of the operator curve (one row per operator variant).
_OPERATOR_COLUMNS = [
    "operator",
    "variant",
    "runtime_s",
    "shuffled_pairs",
    "blocks_read",
    "blocks_skipped",
    "output_rows",
    "results_identical",
]

#: The join key (indexed on upload, so both sides are co-partitioned) and its folded domain.
JOIN_KEY = "f1"
_KEY_DOMAIN = 50

#: The grouping attribute's folded domain: small enough that every map task sees every group.
_GROUP_DOMAIN = 7

#: The ranking attribute — the dataset is uploaded sorted on it, so per-block zone ranges
#: are disjoint and top-k early termination has something to terminate on.
RANK_ATTRIBUTE = "f2"

_LEFT = "/bench/operators/left"
_RIGHT = "/bench/operators/right"
_TOP_K = 10


def _records(seed: int, count: int) -> list[tuple]:
    """Synthetic rows shaped for the three operators (folded keys, rank-sorted)."""
    raw = SyntheticGenerator(seed=seed).generate(count)
    folded = [
        (rec[0] % _KEY_DOMAIN, rec[1], rec[2] % _GROUP_DOMAIN) + rec[3:] for rec in raw
    ]
    rank = SYNTHETIC_SCHEMA.index_of(RANK_ATTRIBUTE)
    return sorted(folded, key=lambda rec: rec[rank])


def _deployment(config: ExperimentConfig) -> HailSystem:
    """A HAIL deployment with both operator datasets uploaded (indexed on the join key)."""
    system = HailSystem(
        Cluster.homogeneous(config.nodes, seed=config.seed),
        config=HailConfig(index_attributes=(JOIN_KEY,), functional_partition_size=1),
        cost=CostModel(CostParameters(enable_variance=False, data_scale=50.0)),
    )
    rows = config.nodes * config.blocks_per_node * config.rows_per_block
    system.upload(
        _LEFT, _records(config.seed, rows), SYNTHETIC_SCHEMA,
        rows_per_block=config.rows_per_block,
    )
    system.upload(
        _RIGHT, _records(config.seed + 1, rows // 2), SYNTHETIC_SCHEMA,
        rows_per_block=config.rows_per_block,
    )
    return system


# --------------------------------------------------------------------------- brute force
def _brute_group_by(records: list[tuple]) -> list[tuple]:
    key_pos = SYNTHETIC_SCHEMA.index_of("f3")
    val_pos = SYNTHETIC_SCHEMA.index_of(RANK_ATTRIBUTE)
    groups: dict = collections.defaultdict(list)
    for rec in records:
        groups[(rec[key_pos],)].append(rec[val_pos])
    return sorted(
        (key + (len(vals), sum(vals)) for key, vals in groups.items()), key=repr
    )


def _brute_join(left: list[tuple], right: list[tuple]) -> list[tuple]:
    kp = SYNTHETIC_SCHEMA.index_of(JOIN_KEY)
    vp = SYNTHETIC_SCHEMA.index_of(RANK_ATTRIBUTE)
    by_key: dict = collections.defaultdict(list)
    for rec in left:
        by_key[rec[kp]].append(rec[vp])
    return sorted(
        (
            (rec[kp], lval, rec[vp])
            for rec in right
            for lval in by_key.get(rec[kp], ())
        ),
        key=repr,
    )


def _brute_top_k(records: list[tuple]) -> list[tuple]:
    rank = SYNTHETIC_SCHEMA.index_of(RANK_ATTRIBUTE)
    rows = sorted(sorted(records, key=repr), key=lambda rec: rec[rank], reverse=True)
    return rows[:_TOP_K]


# --------------------------------------------------------------------------- the curve
def operators_curve(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """One row per operator variant: combiner on/off, merge vs hash join, top-k vs scan."""
    config = config or ExperimentConfig.small()
    system = _deployment(config)
    # The uploaded rows are regenerated deterministically for the brute-force cross-checks.
    rows = config.nodes * config.blocks_per_node * config.rows_per_block
    left = _records(config.seed, rows)
    right = _records(config.seed + 1, rows // 2)

    result = FigureResult(
        figure="Operators curve",
        description="Relational operators on the HAIL layout: combiner, join strategy, top-k",
        columns=_OPERATOR_COLUMNS,
    )

    # -- grouped aggregation: combiner on vs off ---------------------------------------
    specs = (AggregateSpec.parse("count(*)"), AggregateSpec.parse(f"sum({RANK_ATTRIBUTE})"))
    expected_groups = _brute_group_by(left)
    for variant, combiner in (("combiner-on", True), ("combiner-off", False)):
        query = GroupByQuery(
            name=f"bench-{variant}", keys=("f3",), aggregates=specs, combiner=combiner
        )
        run = execute(system, query, _LEFT)
        counters = run.job.counters
        shuffled = (
            counters.value(Counters.COMBINE_OUTPUT_RECORDS)
            if combiner
            else counters.value(Counters.MAP_OUTPUT_RECORDS)
        )
        result.add_row(
            operator="group_by",
            variant=variant,
            runtime_s=run.job.runtime_s,
            shuffled_pairs=int(shuffled),
            blocks_read=0,
            blocks_skipped=0,
            output_rows=len(run.records),
            results_identical=run.records == expected_groups,
        )

    # -- equi-join: planner-chosen merge vs forced hash --------------------------------
    expected_join = _brute_join(left, right)
    sides = dict(
        key=JOIN_KEY,
        left_path=_LEFT,
        right_path=_RIGHT,
        left=Query(name="l", predicate=None, projection=(JOIN_KEY, RANK_ATTRIBUTE)),
        right=Query(name="r", predicate=None, projection=(JOIN_KEY, RANK_ATTRIBUTE)),
    )
    auto = JoinQuery(name="bench-join-auto", **sides)
    assert choose_strategy(system, auto) == "merge", "sides must be co-partitioned"
    for variant, strategy in (("merge", None), ("hash", "hash")):
        query = JoinQuery(name=f"bench-join-{variant}", strategy=strategy, **sides)
        run = execute(system, query, _LEFT)
        result.add_row(
            operator="join",
            variant=variant,
            runtime_s=run.job.runtime_s,
            shuffled_pairs=int(run.job.counters.value(Counters.REDUCE_INPUT_RECORDS)),
            blocks_read=0,
            blocks_skipped=0,
            output_rows=len(run.records),
            results_identical=run.records == expected_join,
        )

    # -- ranked top-k: early termination vs the full-file block count ------------------
    expected_top = _brute_top_k(left)
    top_query = TopKQuery(
        name="bench-topk", order_by=RANK_ATTRIBUTE, k=_TOP_K, descending=True
    )
    run = execute(system, top_query, _LEFT)
    counters = run.job.counters
    result.add_row(
        operator="topk",
        variant=f"limit-{_TOP_K}",
        runtime_s=run.job.runtime_s,
        shuffled_pairs=0,
        blocks_read=int(counters.value(Counters.TOPK_BLOCKS_READ)),
        blocks_skipped=int(counters.value(Counters.TOPK_BLOCKS_SKIPPED)),
        output_rows=len(run.records),
        results_identical=run.records == expected_top,
    )
    return result
