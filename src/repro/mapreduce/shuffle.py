"""Shuffle, sort and reduce.

The paper's evaluation queries are map-only jobs (selections with projections), but the
substrate supports a reduce phase so that general MapReduce programs — for example the
aggregation examples shipped with this reproduction — run end to end.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.topology import Cluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf

#: Rough per-pair byte footprint used to charge shuffle network traffic.
_BYTES_PER_PAIR = 64.0


@dataclass
class ReducePhaseResult:
    """Functional output and simulated duration of the shuffle + reduce phase."""

    output: list[tuple]
    duration_s: float
    num_reduce_tasks: int


def combine_map_output(
    pairs: list[tuple],
    jobconf: JobConf,
    cost: CostModel,
    counters: Counters,
) -> list[tuple]:
    """Apply the job's map-side combiner to one map task's output.

    Mirrors Hadoop's combiner contract: the pairs of a *single* map task are grouped by key
    (sorted by ``repr`` for determinism, like the reduce side) and fed through
    ``jobconf.combiner``, whose output replaces them in the shuffle.  Because the combiner
    must be associative and commutative, the downstream reducer observes fewer pairs but the
    same final answer; the eliminated pairs' shuffle bytes are credited to
    ``SHUFFLE_BYTES_SAVED`` and the reduce phase is charged on the combined pair count.
    Pass-through when the job has no combiner or the task produced no output.
    """
    combiner = jobconf.combiner
    if combiner is None or not pairs:
        return list(pairs)

    groups: dict = defaultdict(list)
    for key, value in pairs:
        groups[key].append(value)

    combined: list[tuple] = []
    counters.increment(Counters.COMBINE_INPUT_RECORDS, len(pairs))
    for key in sorted(groups, key=repr):
        emitted = combiner(key, groups[key])
        if emitted:
            combined.extend(emitted)
    counters.increment(Counters.COMBINE_OUTPUT_RECORDS, len(combined))
    saved_pairs = len(pairs) - len(combined)
    if saved_pairs > 0:
        counters.increment(
            Counters.SHUFFLE_BYTES_SAVED, cost.scale_bytes(saved_pairs * _BYTES_PER_PAIR)
        )
    return combined


def cogroup(*inputs: list[tuple]) -> dict:
    """Group several map outputs by key at once: ``{key: [input 0's values, input 1's, ...]}``.

    Keys stand in first-seen order (input 0's, then those only input 1 has, ...) and a key
    that several objects equal keeps the first of them, as in any ``dict``; an input without
    the key contributes an empty sequence.  A pair costs one dict operation, a distinct key
    one more per input.
    """
    groups: dict = {}
    for position, pairs in enumerate(inputs):
        mine: dict = defaultdict(list)
        for key, value in pairs:
            mine[key].append(value)
        for key, values in mine.items():
            slots = groups.get(key)
            if slots is None:
                groups[key] = slots = [()] * len(inputs)
            slots[position] = values
    return groups


def run_reduce_phase(
    map_output: list[tuple],
    jobconf: JobConf,
    cluster: Cluster,
    cost: CostModel,
    counters: Counters,
    *more_outputs: list[tuple],
) -> ReducePhaseResult:
    """Group the map output by key, partition and sort the keys, apply the reducer per group.

    ``more_outputs`` are further jobs' map outputs shuffled to the same reducers (a reduce-side
    join): the pairs are cogrouped, and the reducer is called as ``reducer(key, values,
    *more_values)`` with one value sequence per input — with none it is the plain
    ``reducer(key, values)``.  A key is hashed, assigned to its partition and ``repr``-ed once,
    not once per pair.

    The simulated duration covers shuffling the intermediate pairs of every input across the
    network, the merge sort on the reduce side and the reducer CPU, executed by
    ``num_reduce_tasks`` tasks in parallel (plus one task-scheduling overhead per reduce wave).
    """
    reducer = jobconf.reducer
    if reducer is None or not (map_output or any(more_outputs)):
        return ReducePhaseResult(output=list(map_output), duration_s=0.0, num_reduce_tasks=0)

    num_reducers = max(1, jobconf.num_reduce_tasks or 1)
    groups = cogroup(map_output, *more_outputs)
    partitions: list[list] = [[] for _ in range(num_reducers)]
    for key in groups:
        partitions[hash(key) % num_reducers].append(key)

    output: list[tuple] = []
    for keys in partitions:
        for key in sorted(keys, key=repr):
            emitted = reducer(key, *groups[key])
            if emitted:
                output.extend(emitted)

    num_pairs = len(map_output) + sum(map(len, more_outputs))
    counters.increment(Counters.REDUCE_INPUT_RECORDS, num_pairs)
    if output:
        counters.increment(Counters.REDUCE_OUTPUT_RECORDS, len(output))
    duration = _reduce_phase_seconds(num_pairs, num_reducers, cluster, cost)
    return ReducePhaseResult(output=output, duration_s=duration, num_reduce_tasks=num_reducers)


def _reduce_phase_seconds(
    num_pairs: int, num_reducers: int, cluster: Cluster, cost: CostModel
) -> float:
    """Simulated duration of shuffling and reducing ``num_pairs`` intermediate pairs."""
    nodes = cluster.alive_nodes
    if not nodes:
        return 0.0
    shuffle_bytes = cost.scale_bytes(num_pairs * _BYTES_PER_PAIR)
    per_reducer_bytes = shuffle_bytes / num_reducers
    reference = nodes[0]
    transfer = cost.network.transfer(
        per_reducer_bytes, reference.hardware, reference.hardware, locality="rack"
    )
    sort_cpu = cost.cpu(reference).sort_block(
        num_values=max(1, int(cost.scale_count(num_pairs / num_reducers))),
        value_bytes=per_reducer_bytes,
    )
    reduce_cpu = cost.cpu(reference).evaluate_predicate(per_reducer_bytes)
    waves = max(1, -(-num_reducers // max(1, len(nodes))))
    return waves * (cost.task_overhead() + transfer + sort_cpu + reduce_cpu)
