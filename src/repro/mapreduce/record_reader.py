"""Record readers.

A record reader turns the blocks of an input split into ``(key, value)`` records and is also
where this reproduction accounts the per-task I/O and CPU cost ("RecordReader time" in Figures
6(b) and 7(b) — footnote 8 of the paper defines it as the time a map task takes to read *and
process* its input).

Replica selection and predicate evaluation live in the unified engine
(:class:`~repro.engine.planner.PhysicalPlanner` /
:class:`~repro.engine.executor.VectorizedExecutor`); readers are thin shells that ask the
planner for a per-block :class:`~repro.engine.access_path.BlockPlan`, hand it to the executor,
and hand the per-block result on — whole, to a job's ``map_batch`` (a system's scan takes its
rows from it), or unpacked into the ``(key, value)`` records of a per-record map function.

:class:`TextRecordReader` is the stock Hadoop reader: it always reads the whole block from the
closest replica and emits ``(byte offset, text line)`` pairs; splitting the line into attributes
is the map function's job, but its CPU cost is part of processing the input and is charged by
the executor.
"""

from __future__ import annotations

import abc
from typing import Iterator

from repro.cluster.costmodel import CostModel
from repro.engine.executor import TextScanResult, VectorizedExecutor
from repro.engine.planner import PhysicalPlanner
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.split import InputSplit


class RecordReader(abc.ABC):
    """Reads the blocks of one split and accounts the simulated cost of doing so.

    The unit of work is the **block**: :meth:`batches` yields one executor result per block
    and does all the bookkeeping below while it does.  Iterating the reader is the per-record
    *view* of the same loop — ``(key, value)`` pairs unpacked from each batch by
    :meth:`records_of` — and is the contract user-written jobs map over: a job with only a
    ``mapper`` sees exactly the records, order and counts the batch path is held to.

    A reader hands two things back to its task: the contract fields below (cost, volume,
    executed plans, staged adaptive builds) and ``counters``, a bag of its own that per-block
    telemetry is counted straight into — nothing for the stock text reader; index uses,
    savings, zone-map skips and fallbacks for HAIL's.  ``MapTask.run`` merges the bag into
    the attempt's counters, so a reader that counts something new needs no second edit there.
    """

    def __init__(self, split: InputSplit, hdfs: Hdfs, cost: CostModel, node_id: int) -> None:
        self.split = split
        self.hdfs = hdfs
        self.cost = cost
        self.node_id = node_id
        #: Simulated seconds spent reading and processing the split's input.
        self.read_seconds: float = 0.0
        #: Functional bytes read from disk (scaled by the cost model when charged).
        self.bytes_read: float = 0.0
        #: Records handed to the map function (bumped once per block, as the block is read).
        self.records_emitted: int = 0
        #: True when at least one block was answered with an index scan (HAIL / Hadoop++).
        self.used_index: bool = False
        #: The executed per-block plans, in split order (assembled into QueryResult.plan).
        self.block_plans: list = []
        #: Adaptive index builds staged by this task's scans (engine ``PendingIndexBuild``
        #: objects), committed (failure-safely, deduplicated) by the scheduler only if this
        #: attempt survives the job.
        self.adaptive_builds: list = []
        #: Per-block telemetry of this reader, merged into the attempt's counters by the task.
        self.counters = Counters()

    @abc.abstractmethod
    def batches(self) -> Iterator:
        """Yield one executor result per block of the split, in split order.

        This is the reader's only block loop: plans, seconds, bytes, ``records_emitted`` and
        the telemetry bag are all updated here, before the batch is handed out, so a batch
        consumer (``JobConf.map_batch``) and a record consumer leave the reader in the same
        state.
        """

    @staticmethod
    @abc.abstractmethod
    def records_of(batch) -> Iterator[tuple]:
        """The ``(key, value)`` records of one batch, in the order the mapper sees them."""

    def __iter__(self) -> Iterator[tuple]:
        """The per-record view: every batch of :meth:`batches`, unpacked by :meth:`records_of`."""
        for batch in self.batches():
            yield from self.records_of(batch)


class TextRecordReader(RecordReader):
    """Stock Hadoop reader: full scan of text blocks, one record per line."""

    def __init__(self, split: InputSplit, hdfs: Hdfs, cost: CostModel, node_id: int) -> None:
        super().__init__(split, hdfs, cost, node_id)
        self.planner = PhysicalPlanner(hdfs)
        self.executor = VectorizedExecutor(hdfs, cost, node_id)

    def batches(self) -> Iterator[TextScanResult]:
        """One :class:`~repro.engine.executor.TextScanResult` (all lines) per block."""
        for block_id in self.split.block_ids:
            plan = self.planner.plan_block(
                block_id,
                preferred=self.split.preferred_replicas.get(block_id),
                prefer_node=self.node_id,
            )
            scan = self.executor.execute_text(plan)
            self.block_plans.append(scan.plan)
            self.read_seconds += scan.seconds
            self.bytes_read += scan.bytes_read
            self.records_emitted += len(scan.lines)
            yield scan

    @staticmethod
    def records_of(batch: TextScanResult) -> Iterator[tuple]:
        """``(byte offset, line)`` per line; offsets count UTF-8 bytes plus the newline."""
        offset = 0
        for line in batch.lines:
            yield offset, line
            offset += (len(line) if line.isascii() else len(line.encode("utf-8"))) + 1
