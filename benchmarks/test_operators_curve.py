"""Operator benchmark: what the HAIL layout buys grouped aggregation, joins and top-k.

Pins the acceptance properties of :mod:`repro.engine.operators` end to end on a
benchmark-scale deployment: the map-side combiner must cut shuffled pairs ≥2x, the planner
must pick the shuffle-free merge join on co-partitioned sides without it ever costing more
than the forced hash fallback, and ranked top-k must open fewer than half the file's blocks
— the assertions below are the floors.  Every variant's rows must equal a brute-force
evaluation in plain Python: a speedup that changes the answer is a bug, not a win.
"""

import collections

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, SyntheticGenerator
from repro.engine.operators import (
    AggregateSpec, GroupByQuery, JoinQuery, TopKQuery, choose_strategy, execute,
)
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.mapreduce.counters import Counters
from repro.query.predicate import Query

#: Join key (indexed on upload, so both sides are co-partitioned), group key and rank
#: attribute (both files are uploaded sorted on it, so top-k can stop early).
KEY, GROUP, RANK = (SYNTHETIC_SCHEMA.index_of(name) for name in ("f1", "f3", "f2"))
LEFT, RIGHT, TOP_K = "/bench/operators/left", "/bench/operators/right", 10


def _records(seed, count):
    """Synthetic rows with the join key folded to 50 values and the group key to 7."""
    raw = SyntheticGenerator(seed=seed).generate(count)
    folded = [(rec[0] % 50, rec[1], rec[2] % 7) + rec[3:] for rec in raw]
    return sorted(folded, key=lambda rec: rec[RANK])


def test_operators_curve(config):
    """Combiner ≥2x pair reduction, merge ≤ hash runtime, top-k reads <50% of blocks."""
    system = HailSystem(
        Cluster.homogeneous(config.nodes, seed=config.seed),
        config=HailConfig(index_attributes=("f1",), functional_partition_size=1),
        cost=CostModel(CostParameters(enable_variance=False, data_scale=50.0)),
    )
    rows = config.num_records
    left, right = _records(config.seed, rows), _records(config.seed + 1, rows // 2)
    system.upload(LEFT, left, SYNTHETIC_SCHEMA, rows_per_block=config.rows_per_block)
    system.upload(RIGHT, right, SYNTHETIC_SCHEMA, rows_per_block=config.rows_per_block)

    groups = collections.defaultdict(list)
    for rec in left:
        groups[(rec[GROUP],)].append(rec[RANK])
    expected = sorted((key + (len(vals), sum(vals)) for key, vals in groups.items()), key=repr)
    aggregates = (AggregateSpec.parse("count(*)"), AggregateSpec.parse("sum(f2)"))
    shuffled = {}
    for variant, combiner, counter in (
        ("on", True, Counters.COMBINE_OUTPUT_RECORDS), ("off", False, Counters.MAP_OUTPUT_RECORDS)
    ):
        query = GroupByQuery(name=f"bench-combiner-{variant}", keys=("f3",),
                             aggregates=aggregates, combiner=combiner)
        run = execute(system, query, LEFT)
        assert run.records == expected
        shuffled[combiner] = run.job.counters.value(counter)
    # This assertion is the combiner floor: combining shrinks the shuffle ≥2x.
    assert shuffled[False] >= 2 * shuffled[True] > 0

    by_key = collections.defaultdict(list)
    for rec in left:
        by_key[rec[KEY]].append(rec[RANK])
    expected = sorted(
        ((rec[KEY], value, rec[RANK]) for rec in right for value in by_key[rec[KEY]]), key=repr
    )
    sides = dict(
        key="f1", left_path=LEFT, right_path=RIGHT,
        left=Query(name="l", predicate=None, projection=("f1", "f2")),
        right=Query(name="r", predicate=None, projection=("f1", "f2")),
    )
    assert choose_strategy(system, JoinQuery(name="bench-join-auto", **sides)) == "merge"
    merge, hash_join = (
        execute(system, JoinQuery(name=f"bench-join-{variant}", strategy=strategy, **sides), LEFT)
        for variant, strategy in (("merge", None), ("hash", "hash"))
    )
    assert merge.records == hash_join.records == expected
    assert expected
    # The merge join shuffles nothing; the hash fallback pays the real reduce phase.
    assert merge.job.counters.value(Counters.REDUCE_INPUT_RECORDS) == 0
    assert hash_join.job.counters.value(Counters.REDUCE_INPUT_RECORDS) > 0
    assert merge.job.runtime_s <= hash_join.job.runtime_s

    query = TopKQuery(name="bench-topk", order_by="f2", k=TOP_K, descending=True)
    run = execute(system, query, LEFT)
    ranked = sorted(sorted(left, key=repr), key=lambda rec: rec[RANK], reverse=True)
    assert run.records == ranked[:TOP_K] and len(run.records) == TOP_K
    read = run.job.counters.value(Counters.TOPK_BLOCKS_READ)
    skipped = run.job.counters.value(Counters.TOPK_BLOCKS_SKIPPED)
    assert read + skipped > 0 and read / (read + skipped) < 0.5
