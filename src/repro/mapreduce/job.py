"""Job configuration and job results."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Iterable, Optional

from repro.mapreduce.counters import Counters

#: A map function: ``mapper(key, value) -> iterable of (key, value) pairs`` (or ``None``).
Mapper = Callable[[Any, Any], Optional[Iterable[tuple]]]
#: The block form of a map function: ``map_batch(batch) -> list of (key, value) pairs``, where
#: ``batch`` is one item of the job's ``RecordReader.batches()``.  It must return a list (empty,
#: never ``None``) of exactly the pairs, in order, that ``mapper`` gives the batch's records.
MapBatch = Callable[[Any], list]
#: A reduce function: ``reducer(key, values) -> iterable of (key, value) pairs`` (or ``None``).
Reducer = Callable[[Any, list], Optional[Iterable[tuple]]]


def identity_mapper(key: Any, value: Any) -> Iterable[tuple]:
    """Default mapper: pass the record through unchanged."""
    return [(key, value)]


def unkeyed(rows) -> list:
    """``(None, row)`` per row: what a map function that only passes rows on emits (HAIL's
    ``output(v, null)``, Section 4.1).  The one builder of such pairs: a null-keyed result
    (:class:`Emitted`) calls it when its ``output`` is read."""
    return list(zip(repeat(None), rows))


class Emitted:
    """What a map task or a job emitted: ``(key, value)`` pairs, or null-keyed bare rows.

    ``emitted`` holds pairs while ``keyed`` is True.  A map-only scan whose rows are passed on
    as they are (HAIL's ``output(v, null)``) keeps them bare instead (``keyed`` False), each
    standing for the pair ``(None, row)``: ``records`` is then a copy of the rows, and
    ``output`` builds the pairs only when it is read — the same pairs, in the same order, a
    keyed result would hold.  Mixed into :class:`JobResult` and ``MapTaskResult``, which
    declare ``emitted`` and ``keyed`` as dataclass fields.
    """

    emitted: list
    keyed: bool

    @property
    def output(self) -> list[tuple]:
        """The ``(key, value)`` pairs; a null-keyed result pairs its rows here, per read."""
        return self.emitted if self.keyed else unkeyed(self.emitted)

    @property
    def records(self) -> list:
        """Only the output values (the projected tuples for query-style jobs)."""
        if self.keyed:
            return [value for _, value in self.emitted]
        return list(self.emitted)


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
    from a scan's row functions and its consumer's ``emit(rows) -> pairs``
    (:func:`repro.systems.base.scan_job`).  When present the map task calls it once per block
    instead of ``mapper`` once per record, so code that replaces ``mapper`` on a system-built
    jobconf replaces or clears ``map_batch`` as well.

    A plain scan passes its rows on with the null key.  Its ``map_batch`` returns the bare
    rows and ``null_keyed`` says so: a map-only job then keeps them unpaired
    (:class:`Emitted`), while a job with a combiner or reducer pairs them before the shuffle.
    ``mapper`` returns pairs either way.
    """

    name: str
    input_path: str
    mapper: Mapper = identity_mapper
    #: Block form of ``mapper`` (see :data:`MapBatch`); ``None`` runs ``mapper`` per record.
    map_batch: Optional[MapBatch] = None
    #: True when ``map_batch`` returns bare rows, each standing for the pair ``(None, row)``.
    null_keyed: bool = False
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
    emitted: list
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
    keyed: bool = True

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
            "output_records": len(self.emitted),
        }


@dataclass
class Lowering:
    """A compiled query as ordinary MapReduce work: the scans it needs plus a finish step.

    ``scans`` are ``(Query, path[, emit[, decorate]])`` entries, each run as the system's own
    scan job for that query.  ``emit(rows) -> pairs`` is what the scan's map function hands its
    rows to (group-by's regroup, a join side's keying; when omitted the rows pass on with the
    null key, unpaired), and ``decorate(jobconf)`` adjusts the job in place right after it is
    built (group-by installs its combiner, reducer and reduce-task count there).
    ``finish(jobs, scans_s)`` turns the scans' :class:`JobResult` s, aligned with ``scans``,
    into the answer — ``(records, job)`` plus, for a plain scan, the executed plan;
    ``scans_s`` is what the scans took end to end: back-to-back the sum of their runtimes,
    on an interleaved batch the latest finish.
    """

    scans: list[tuple]
    finish: Callable[[list[JobResult], float], tuple]
