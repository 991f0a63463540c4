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
    ``output(v, null)``, Section 4.1).  The one builder of such pairs, and a scan's ``emit``."""
    return list(zip(repeat(None), rows))


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
class JobResult:
    """Outcome of one simulated MapReduce job."""

    job_name: str
    output: list[tuple]
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

    @property
    def overhead_s(self) -> float:
        """Framework overhead: end-to-end runtime minus the ideal execution time (Section 6.4.1)."""
        return max(0.0, self.runtime_s - self.ideal_time_s)

    @property
    def records(self) -> list:
        """Only the output values (the projected tuples for query-style jobs)."""
        return [value for _, value in self.output]

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
            "output_records": len(self.output),
        }
