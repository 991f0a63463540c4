"""Shuffle, sort and reduce.

The paper's evaluation queries are map-only jobs (selections with projections), but the
substrate supports a reduce phase so that general MapReduce programs — for example the
aggregation examples shipped with this reproduction — run end to end, and so that a hash join
can shuffle both of its scans' outputs to one set of reducers.  The reduce side groups each
input's values by one stable sort of key numbers, not by a list per key: a key's group is a run
of that order, sliced only for the reducer call that takes it.  A map output comes in as its key
column and its value column (:class:`~repro.mapreduce.job.Emitted`), and goes on as the same two
columns: the pairs a combiner or a reducer returns are split into them once
(:func:`~repro.mapreduce.job.unpaired`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat
from operator import itemgetter
from typing import Iterable, Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.topology import Cluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Emitted, JobConf, key_column, unpaired

#: Rough per-pair byte footprint used to charge shuffle network traffic.
_BYTES_PER_PAIR = 64.0

_FIRST = itemgetter(0)


@dataclass
class ReducePhaseResult(Emitted):
    """Functional output (see :class:`~repro.mapreduce.job.Emitted`) and simulated duration of
    the shuffle + reduce phase."""

    duration_s: float
    num_reduce_tasks: int


def combine_map_output(
    keys: Optional[list],
    values: list,
    jobconf: JobConf,
    cost: CostModel,
    counters: Counters,
) -> tuple[Optional[list], list]:
    """Apply the job's map-side combiner to one map task's output, its key and value columns.

    Mirrors Hadoop's combiner contract: the values of a *single* map task are grouped by key
    (sorted by ``repr`` for determinism, like the reduce side) and fed through
    ``jobconf.combiner``, whose output replaces them in the shuffle.  Because the combiner
    must be associative and commutative, the downstream reducer observes fewer pairs but the
    same final answer; the eliminated pairs' shuffle bytes are credited to
    ``SHUFFLE_BYTES_SAVED`` and the reduce phase is charged on the combined pair count.
    Returns the ``(keys, values)`` columns as they are when the job has no combiner or the task
    produced no output.
    """
    combiner = jobconf.combiner
    if combiner is None or not values:
        return keys, values

    groups: dict = defaultdict(list)
    for key, value in zip(key_column(keys, len(values)), values):
        groups[key].append(value)

    combined: list[tuple] = []
    counters.increment(Counters.COMBINE_INPUT_RECORDS, len(values))
    for key in sorted(groups, key=repr):
        emitted = combiner(key, groups[key])
        if emitted:
            combined.extend(emitted)
    counters.increment(Counters.COMBINE_OUTPUT_RECORDS, len(combined))
    saved_pairs = len(values) - len(combined)
    if saved_pairs > 0:
        counters.increment(
            Counters.SHUFFLE_BYTES_SAVED, cost.scale_bytes(saved_pairs * _BYTES_PER_PAIR)
        )
    return unpaired(combined)


def numbered(keys: Iterable) -> dict:
    """``{key: number}`` in first-seen order; a key that several objects equal is the first."""
    return dict(zip(dict.fromkeys(keys), count()))


def key_runs(keys: list, numbers: dict, order: list[int]) -> list[int]:
    """Group positions by key with one sort; return where each key's run starts.

    ``order`` holds positions into ``keys``; it is stably sorted in place by the number
    ``numbers`` gives each position's key, so key ``n``'s positions become the run
    ``order[starts[n]:starts[n + 1]]``, in their former relative order (empty where ``keys``
    lacks the key).
    """
    ids = list(map(numbers.__getitem__, keys))
    order.sort(key=ids.__getitem__)
    counts = Counter(ids)
    return list(accumulate(map(counts.get, range(len(numbers)), repeat(0)), initial=0))


def run_reduce_phase(
    map_output: Emitted,
    jobconf: JobConf,
    cluster: Cluster,
    cost: CostModel,
    counters: Counters,
    *more_outputs: Emitted,
) -> ReducePhaseResult:
    """Group the map output by key, partition and sort the keys, apply the reducer per group.

    Each map output is an :class:`~repro.mapreduce.job.Emitted` — a job's or the runner's key
    and value columns, taken as they are.  ``more_outputs`` are further jobs' map outputs
    shuffled to the same reducers (a reduce-side join): the reducer is called as
    ``reducer(key, values, *more_values)`` with one value sequence per input — with none it is
    the plain ``reducer(key, values)``.  The reducers' pairs are split into the result's key
    and value columns once, after the last call.  A job without a reducer passes its one map
    output's columns through and refuses further ones.

    The grouping is one sort per input, not one list per key (:func:`key_runs`): keys are
    numbered in first-seen order — input 0's, then those only input 1 has, ... — and each
    input's values are stably sorted by their key's number.  A reducer call gets its key's run
    sliced from each input — a list of that input's values in arrival order, ``()`` where the
    input lacks the key — so a per-key list lives for one call.  A key is hashed, assigned to
    its partition and ``repr``-ed once, not once per pair.

    The simulated duration covers shuffling the intermediate pairs of every input across the
    network, the merge sort on the reduce side and the reducer CPU, executed by
    ``num_reduce_tasks`` tasks in parallel (plus one task-scheduling overhead per reduce wave).
    """
    reducer = jobconf.reducer
    if reducer is None and more_outputs:
        raise ValueError(
            f"job {jobconf.name!r} has no reducer to join {1 + len(more_outputs)} map outputs"
        )
    outputs = (map_output, *more_outputs)
    if reducer is None or not any(output.values for output in outputs):
        return ReducePhaseResult(
            map_output.keys, map_output.values, duration_s=0.0, num_reduce_tasks=0
        )

    inputs = [(key_column(output.keys, len(output.values)), output.values) for output in outputs]
    num_reducers = max(1, jobconf.num_reduce_tasks or 1)
    numbers = numbered(chain.from_iterable(map(_FIRST, inputs)))
    runs = []  # per input: its values sorted into key runs, and where the runs start
    for keys, values in inputs:
        order = list(range(len(values)))
        starts = key_runs(keys, numbers, order)
        runs.append((list(map(values.__getitem__, order)), starts))
    distinct = list(numbers)
    texts = list(map(repr, distinct))
    partitions: list[list] = [[] for _ in range(num_reducers)]
    for number, key in enumerate(distinct):
        partitions[hash(key) % num_reducers].append(number)

    output: list[tuple] = []
    for partition in partitions:
        for number in sorted(partition, key=texts.__getitem__):
            groups = [values[s[number] : s[number + 1]] or () for values, s in runs]
            emitted = reducer(distinct[number], *groups)
            if emitted:
                output.extend(emitted)

    num_pairs = sum(len(values) for _, values in inputs)
    counters.increment(Counters.REDUCE_INPUT_RECORDS, num_pairs)
    if output:
        counters.increment(Counters.REDUCE_OUTPUT_RECORDS, len(output))
    duration = _reduce_phase_seconds(num_pairs, num_reducers, cluster, cost)
    return ReducePhaseResult(*unpaired(output), duration_s=duration, num_reduce_tasks=num_reducers)


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
