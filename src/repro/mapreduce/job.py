"""Job configuration and job results."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from repro.mapreduce.counters import Counters

#: A map function: ``mapper(key, value) -> iterable of (key, value) pairs`` (or ``None``).
Mapper = Callable[[Any, Any], Optional[Iterable[tuple]]]
#: The block form of a map function: ``map_batch(batch) -> (keys, values)``, where ``batch`` is
#: one item of the job's ``RecordReader.batches()``.  ``values`` is a list (empty, never
#: ``None``) of exactly the values, in order, of the pairs ``mapper`` gives the batch's
#: records, and ``keys`` is the column of their keys — or ``None`` when every key is ``None``.
MapBatch = Callable[[Any], tuple]
#: A reduce function: ``reducer(key, values) -> iterable of (key, value) pairs`` (or ``None``).
Reducer = Callable[[Any, list], Optional[Iterable[tuple]]]

_FIRST, _SECOND = itemgetter(0), itemgetter(1)


def identity_mapper(key: Any, value: Any) -> Iterable[tuple]:
    """Default mapper: pass the record through unchanged."""
    return [(key, value)]


def paired(keys: Optional[Sequence], values: Sequence) -> list[tuple]:
    """``(key, value)`` per value: the pairs a key column and a value column stand for, the key
    ``None`` throughout when ``keys`` is ``None`` (HAIL's ``output(v, null)``, Section 4.1)."""
    return list(zip(repeat(None) if keys is None else keys, values))


def unpaired(pairs: Sequence[tuple]) -> tuple[list, list]:
    """``(keys, values)``: the key column and the value column of ``pairs``, the inverse of
    :func:`paired` — where a user function's ``(key, value)`` pairs become columns."""
    return list(map(_FIRST, pairs)), list(map(_SECOND, pairs))


@dataclass
class Emitted:
    """What a map task, a reduce phase or a job emitted: a key column beside a value column.

    ``values`` holds the emitted values in order and ``keys`` their keys, one per value — or
    ``None`` when every key is ``None``, as for a scan whose rows are passed on as they are
    (HAIL's ``output(v, null)``) and an operator's answer.  No ``(key, value)`` pair is built
    until ``output`` is read; ``records`` is a copy of the values.  It is the one form map
    output takes between user functions: the pairs a mapper, combiner or reducer returns are
    split into it once (:func:`unpaired`).  :class:`JobResult`, ``MapTaskResult`` and
    ``ReducePhaseResult`` extend it; the runner hands one to the shuffle.
    """

    keys: Optional[list]
    values: list

    @property
    def output(self) -> list[tuple]:
        """The ``(key, value)`` pairs, built per read (:func:`paired`)."""
        return paired(self.keys, self.values)

    @property
    def records(self) -> list:
        """Only the output values (the projected tuples for query-style jobs)."""
        return list(self.values)


def key_column(keys: Optional[list], count: int) -> list:
    """``keys``, or ``count`` ``None`` keys where it is ``None``: a key column to group by."""
    return [None] * count if keys is None else keys


def concatenated(parts: Iterable[tuple]) -> tuple[Optional[list], list]:
    """One key column and one value column out of ``(keys, values)`` parts, in order (blocks
    of one map task, map tasks of one job); the keys are ``None`` when every part's are."""
    keys: Optional[list] = None
    values: list = []
    # One part at a time, each dropped once appended: parts held to the end (for C-level
    # joins) outlive young-generation collections, which then walk every block's list.
    for part_keys, part_values in parts:
        if part_keys is not None or keys is not None:
            if keys is None:
                keys = [None] * len(values)
            keys += key_column(part_keys, len(part_values))
        values += part_values
    return keys, values


@dataclass
class JobConf:
    """Configuration of one MapReduce job.

    ``input_format`` is an instance of :class:`~repro.mapreduce.input_format.InputFormat`; Bob
    switches it to ``HailInputFormat`` to run on HAIL (Section 4.1, change 1), and that format
    carries the job's HAIL state.  ``properties`` carries free-form configuration, notably the
    ``hail.query`` annotation when the selection predicate and projection come through the job
    configuration, not the map function.

    ``mapper`` is the map function — the public, per-record contract, and the reference.
    ``map_batch`` is an optional block form of the *same* function; the systems compose both
    from a scan's batch function and its consumer's ``emit(batch) -> (keys, values)``
    (:func:`repro.systems.base.scan_job`).  When present the map task calls it once per block
    instead of ``mapper`` once per record, and keeps what it returns as columns: a plain scan's
    rows go on with no key column at all (``keys`` ``None``), and no pair is built.  Without
    it, the pairs ``mapper`` returns are split into the same two columns (:func:`unpaired`);
    the combiner's and the reducer's pairs are split the same way, so every stage after a user
    function hands on columns.  Code that replaces ``mapper`` on a system-built jobconf
    replaces or clears ``map_batch`` as well.
    """

    name: str
    input_path: str
    mapper: Mapper = identity_mapper
    #: Block form of ``mapper`` (see :data:`MapBatch`); ``None`` runs ``mapper`` per record.
    map_batch: Optional[MapBatch] = None
    reducer: Optional[Reducer] = None
    #: Optional map-side combiner (same signature as the reducer): applied to every map
    #: task's output before the shuffle, so commutative/associative aggregations pay the
    #: network for one partial pair per (task, key) instead of one pair per input record.
    combiner: Optional[Reducer] = None
    num_reduce_tasks: int = 0
    input_format: Any = None
    properties: dict = field(default_factory=dict)


@dataclass
class JobResult(Emitted):
    """Outcome of one simulated MapReduce job (its output: see :class:`Emitted`)."""

    job_name: str
    runtime_s: float
    ideal_time_s: float
    num_map_tasks: int
    num_waves: int
    avg_record_reader_s: float
    max_record_reader_s: float
    total_record_reader_s: float
    map_phase_s: float
    reduce_phase_s: float
    split_phase_s: float
    counters: Counters
    task_results: list = field(default_factory=list)
    failure_node: Optional[int] = None
    rescheduled_tasks: int = 0
    #: ``None`` unless the job was submitted with a ``deadline_s`` on the concurrent path.
    deadline_met: Optional[bool] = None
    #: The :class:`~repro.engine.planner.QueryPlan` the job executed: its split phase's bound
    #: query framing the block plans of the accepted attempts (truthful under failure
    #: injection and reschedules); ``None`` for an input format that keeps no plan.
    plan: Any = None

    @property
    def overhead_s(self) -> float:
        """Framework overhead: end-to-end runtime minus the ideal execution time (Section 6.4.1)."""
        return max(0.0, self.runtime_s - self.ideal_time_s)

    def summary(self) -> dict:
        """Compact summary for reports."""
        return {
            "job": self.job_name,
            "runtime_s": round(self.runtime_s, 3),
            "ideal_s": round(self.ideal_time_s, 3),
            "overhead_s": round(self.overhead_s, 3),
            "map_tasks": self.num_map_tasks,
            "waves": self.num_waves,
            "avg_rr_ms": round(self.avg_record_reader_s * 1000.0, 3),
            "output_records": len(self.values),
        }


class OperatorPlan(NamedTuple):
    """What an operator executed: one :class:`~repro.engine.planner.QueryPlan` per scan (the
    block plans a scan-less top-k probed, framed as one), under the operator's ``EXPLAIN``
    header.  ``explain()`` renders ``render(plans)``; nothing is rendered before it is called.
    """

    plans: list
    render: Callable[[list], str]

    def explain(self) -> str:
        """The operator's header above its plans, each rendered as ``QueryPlan.explain``."""
        return self.render(self.plans)


@dataclass
class Lowering:
    """A compiled query as ordinary MapReduce work: the scans it needs plus a finish step, and
    how it renders itself over its scans' plans.

    ``scans`` are ``(Query, path[, emit[, decorate]])`` entries, each run as the system's own
    scan job for that query.  ``emit(batch) -> (keys, values)`` is what the scan's map function
    hands each block's column batch to (group-by's regroup, a join side's keying; when omitted
    the batch's rows pass on with the null key, no key column), and ``decorate(jobconf)``
    adjusts the job in place right after it is built (group-by installs its combiner, reducer
    and reduce-task count there).
    ``finish(jobs, scans_s) -> (records, job)`` turns the scans' :class:`JobResult` s, aligned
    with ``scans``, into the answer and the job that reports it; ``scans_s`` is what the scans
    took end to end: back-to-back the sum of their runtimes, on an interleaved batch the latest
    finish.
    ``explain(plans)`` renders the operator's ``EXPLAIN`` over one plan per scan, from the
    decisions the lowering made (a join's strategy, group-by's reduce tasks, top-k's block
    bounds); ``None`` for a plain scan, whose one plan renders itself (:meth:`frame`).  The
    plans are the split phase's before a run (``system.explain``) and the executed ones
    (``JobResult.plan``) after it (``QueryResult.plan``).
    ``refusal`` names why the query cannot run as asked (a forced merge join on sides that are
    not co-partitioned): running it raises ``ValueError(refusal)`` before any job, and
    ``explain`` renders the refusal instead.
    """

    scans: list[tuple]
    finish: Optional[Callable[[list[JobResult], float], tuple]]
    explain: Optional[Callable[[list], str]] = None
    refusal: Optional[str] = None

    def frame(self, plans: list):
        """What ``EXPLAIN`` renders over ``plans``: a plain scan's one plan as it is, an
        operator's plans under its header (:class:`OperatorPlan`)."""
        return plans[0] if self.explain is None else OperatorPlan(plans, self.explain)
