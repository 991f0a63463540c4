"""Job configuration and job results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.mapreduce.counters import Counters

#: A map function: ``mapper(key, value) -> iterable of (key, value) pairs`` (or ``None``).
Mapper = Callable[[Any, Any], Optional[Iterable[tuple]]]
#: The block form of a map function: ``map_batch(batch) -> list of (key, value) pairs``, where
#: ``batch`` is one item of the job's ``RecordReader.batches()``.  It must return a list —
#: empty when nothing qualifies, never ``None`` — holding exactly the pairs, in the order, that
#: calling the job's ``mapper`` on every record of the batch would have produced.
MapBatch = Callable[[Any], list]
#: A reduce function: ``reducer(key, values) -> iterable of (key, value) pairs`` (or ``None``).
Reducer = Callable[[Any, list], Optional[Iterable[tuple]]]


#: Property under which an input format reports blocks it pruned during the split phase
#: (``{"blocks": int, "bytes": int}``); the runner pops it into the job's counters, so the
#: stash never leaks into a later run of the same ``JobConf``.
PRUNED_BLOCKS_PROPERTY = "mapreduce.split.pruned"


def identity_mapper(key: Any, value: Any) -> Iterable[tuple]:
    """Default mapper: pass the record through unchanged."""
    return [(key, value)]


@dataclass
class JobConf:
    """Configuration of one MapReduce job.

    ``input_format`` is an instance of :class:`~repro.mapreduce.input_format.InputFormat`; Bob
    switches it to ``HailInputFormat`` to run on HAIL (Section 4.1, change 1).  ``properties``
    carries free-form configuration, notably the ``hail.query`` annotation when the selection
    predicate and projection are given through the job configuration instead of the map-function
    annotation.

    ``mapper`` is the map function — the public, per-record contract, and the reference.
    ``map_batch`` is an optional block form of the *same* function that the systems install
    beside the mappers they build themselves; when present the map task calls it once per
    block instead of ``mapper`` once per record.  The two must stay in step: code that
    replaces ``mapper`` on a system-built jobconf replaces or clears ``map_batch`` as well.
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

    def with_property(self, key: str, value: Any) -> "JobConf":
        """Set a configuration property and return ``self`` (chaining helper)."""
        self.properties[key] = value
        return self

    def pipe_map_output(self, transform: Callable[[list], list]) -> None:
        """Pass every pair list the map function emits through ``transform(pairs) -> pairs``.

        Wraps ``mapper`` and ``map_batch`` in step, which is how an operator reshapes the
        pairs of a system-built scan (group-by's partials, a join's keyed rows).  ``transform``
        is given one record's pairs — never none — or one block's, where no pairs give none.
        """
        scan_mapper, scan_map_batch = self.mapper, self.map_batch

        def mapper(key, record):
            pairs = scan_mapper(key, record)
            return transform(pairs) if pairs else None

        self.mapper = mapper
        if scan_map_batch is not None:
            self.map_batch = lambda batch: transform(scan_map_batch(batch))


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
