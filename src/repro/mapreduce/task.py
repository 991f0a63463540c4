"""Map tasks: functional execution of a record reader plus the user's map function."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.costmodel import CostModel
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf
from repro.mapreduce.split import InputSplit


@dataclass
class MapTaskResult:
    """Functional output and simulated cost of one map task execution."""

    task_id: int
    node_id: int
    output: list[tuple]
    record_reader_s: float
    map_function_s: float
    records_read: int
    bytes_read: float
    used_index: bool
    #: The per-block plans the reader executed (engine ``BlockPlan`` objects).
    block_plans: list = field(default_factory=list)
    #: Adaptive index builds staged by this attempt (engine ``PendingIndexBuild`` objects);
    #: the scheduler commits them only for attempts that survive the job.
    adaptive_builds: list = field(default_factory=list)

    @property
    def compute_seconds(self) -> float:
        """Task busy time excluding framework scheduling overhead."""
        return self.record_reader_s + self.map_function_s


@dataclass
class MapTask:
    """One map task: an input split plus the job it belongs to."""

    task_id: int
    split: InputSplit
    jobconf: JobConf

    def run(self, hdfs: Hdfs, cost: CostModel, node_id: int, counters: Counters) -> MapTaskResult:
        """Execute the task on ``node_id``: read the split, map every block.

        A jobconf with a ``map_batch`` (every job a system builds: plain scans and the scans
        under group-bys and joins) is mapped one call per block over ``reader.batches()``.
        Any other job — user code — runs ``mapper(key, value)`` per record of the reader's
        per-record view.  Both leave the same output, in order, and the same reader state.

        ``counters`` is the attempt's private scratch bag (the scheduler merges it into the
        job's only if the attempt is accepted).  The task counts what it sees itself —
        records in and out, bytes, whether any block was index-scanned, staged builds — and
        merges in whatever the reader counted per block (``reader.counters``).
        """
        reader = self.jobconf.input_format.create_record_reader(
            self.split, hdfs, self.jobconf, cost, node_id
        )
        output: list[tuple] = []
        map_batch = self.jobconf.map_batch
        if map_batch is not None:
            for batch in reader.batches():
                output.extend(map_batch(batch))
        else:
            mapper = self.jobconf.mapper
            for key, value in reader:
                pairs = mapper(key, value)
                if pairs:
                    output.extend(pairs)
        counters.increment(Counters.MAP_INPUT_RECORDS, reader.records_emitted)
        counters.increment(Counters.MAP_OUTPUT_RECORDS, len(output))
        counters.increment(Counters.BYTES_READ, reader.bytes_read)
        counters.increment(
            Counters.INDEX_SCANS if reader.used_index else Counters.FULL_SCANS
        )
        if reader.adaptive_builds:
            counters.increment(Counters.ADAPTIVE_INDEX_BUILDS, len(reader.adaptive_builds))
        counters.merge(reader.counters)
        # The map function body itself (emitting projected values) is a tiny constant per record.
        map_function_s = 2.0e-8 * reader.records_emitted * cost.params.data_scale
        return MapTaskResult(
            task_id=self.task_id,
            node_id=node_id,
            output=output,
            record_reader_s=reader.read_seconds,
            map_function_s=map_function_s,
            records_read=reader.records_emitted,
            bytes_read=reader.bytes_read,
            used_index=reader.used_index,
            block_plans=list(reader.block_plans),
            adaptive_builds=list(reader.adaptive_builds),
        )
