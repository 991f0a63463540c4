"""The HailRecordReader (Section 4.3).

Since the unified query-execution engine (:mod:`repro.engine`) was extracted, this reader is a
thin shell: for every block of its split it asks the :class:`~repro.engine.planner.PhysicalPlanner`
for a :class:`~repro.engine.access_path.BlockPlan` (which replica to open, which access path to
use) and hands the plan to the :class:`~repro.engine.executor.VectorizedExecutor`, which

1. opens an input stream to the planned replica (preferring the one carrying the matching
   clustered index; falling back to standard scanning when no matching index is alive),
2. reads the index directory into main memory (a few KB) and looks up the qualifying partitions,
3. reads exactly those partitions of the needed columns from disk, post-filters them
   column-at-a-time with the full predicate, and reconstructs the projected attributes from PAX
   to row layout.

The reader hands each block's result on whole (``batches()``; the systems' scans take its
:data:`projected_rows`); only the per-record view wraps qualifying tuples as
:class:`~repro.hail.record.HailRecord`\\ s for a user's map function, with bad records passed
through flagged as bad.  The simulated RecordReader time
charged by the executor is what Figures 6(b) and 7(b) report.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Optional

from repro.cluster.costmodel import CostModel
from repro.engine.adaptive import AdaptiveJobContext
from repro.engine.executor import BlockScanResult, VectorizedExecutor
from repro.engine.planner import PhysicalPlanner
from repro.hail.annotation import HailQuery, resolve_annotation
from repro.hail.record import HailRecord
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf
from repro.mapreduce.record_reader import RecordReader
from repro.mapreduce.split import InputSplit


#: A block's rows: the reader has selected and projected them already, so passing them on
#: (``output(v, null)``, Section 4.1) is all a HAIL or Hadoop++ scan's map function does.
projected_rows = attrgetter("projected")


def projected_row(record: HailRecord) -> Optional[tuple]:
    """One record's row, the per-record twin of :data:`projected_rows`: ``None`` if bad."""
    return None if record.bad else record.as_tuple()


class HailRecordReader(RecordReader):
    """Index scan (or PAX scan fallback) over HAIL replicas, with selection and projection.

    Counts each executed block into ``self.counters`` straight from its ``BlockScanResult``:
    adaptive index uses and their measured savings, zone-map skips and pruned bytes, scan
    fallbacks — the sliced ones also under ``NAME[attribute]``.  The task merges the bag.

    ``zone_maps`` and ``adaptive`` come from the job's input format: HAIL's passes its
    config's zone-map switch and the job's adaptive-indexing context, Hadoop++'s trojan
    format passes neither (no synopses to skip by, nothing to build).
    """

    def __init__(
        self, split: InputSplit, hdfs: Hdfs, cost: CostModel, node_id: int, jobconf: JobConf,
        zone_maps: bool = False, adaptive: Optional[AdaptiveJobContext] = None,
    ) -> None:
        super().__init__(split, hdfs, cost, node_id)
        self.jobconf = jobconf
        self.annotation: Optional[HailQuery] = resolve_annotation(jobconf)
        self.planner = PhysicalPlanner(hdfs, zone_maps=zone_maps)
        self.executor = VectorizedExecutor(hdfs, cost, node_id, zone_maps=zone_maps)
        #: The job's adaptive-indexing policy; ``None`` keeps the reader purely read-only.
        self.adaptive = adaptive

    # ------------------------------------------------------------------ iteration
    def batches(self) -> Iterator[BlockScanResult]:
        """One :class:`~repro.engine.executor.BlockScanResult` per block: plan, execute, count."""
        for block_id in self.split.block_ids:
            plan = self.planner.plan_block(
                block_id,
                annotation=self.annotation,
                preferred=self.split.preferred_replicas.get(block_id),
                prefer_node=self.node_id,
                adaptive=self.adaptive,
            )
            scan = self.executor.execute(plan, self.annotation, adaptive=self.adaptive)
            self.block_plans.append(scan.plan)
            self.read_seconds += scan.seconds
            self.bytes_read += scan.bytes_read
            if scan.pending_build is not None:
                self.adaptive_builds.append(scan.pending_build)
            counters = self.counters
            if scan.used_adaptive_index:
                # Lifecycle-tuner telemetry: the use and the scan savings it realised (the
                # executor's counterfactual), sliced by the index's attribute.
                counters.increment(Counters.ADAPTIVE_INDEX_USES, attribute=scan.plan.attribute)
                counters.increment(
                    Counters.ADAPTIVE_SAVED_SECONDS, scan.saved_seconds, scan.plan.attribute
                )
            if scan.zone_map_pruned_bytes:
                counters.increment(Counters.ZONE_MAP_PRUNED_BYTES, scan.zone_map_pruned_bytes)
            if scan.used_index:
                self.used_index = True
            elif scan.zone_map_skipped:
                # A verified skip is neither an index scan nor a fallback: no data was read,
                # so it must not count as a full scan nor feed the adaptive tuner's ledgers.
                counters.increment(Counters.ZONE_MAP_SKIPPED_BLOCKS)
            else:
                # Fallbacks are attributed to the query's *first* filter attribute — the same
                # attribute an adaptive build of the block would target.  The slices feed the
                # split tuner ledgers and the placement balancer's demand tracking.
                counters.increment(
                    Counters.SCAN_FALLBACK_BLOCKS,
                    attribute=self._first_filter_attribute(scan.schema),
                )

            self.records_emitted += len(scan.rows) + len(scan.bad_lines)
            yield scan

    @staticmethod
    def records_of(batch: BlockScanResult) -> Iterator[tuple]:
        """``(row id, HailRecord)`` per qualifying row, then the block's bad records."""
        schema, positions = batch.schema, batch.positions
        for row_id, values in zip(batch.rows, batch.projected):
            yield row_id, HailRecord(schema, values, positions)
        # Bad records are handed to the map function unchanged, flagged as bad (Section 4.3).
        for line in batch.bad_lines:
            yield -1, HailRecord(schema, (), positions=(), bad=True, raw_line=line)

    def _first_filter_attribute(self, schema) -> Optional[str]:
        """The query's first filter attribute (fallback attribution), or ``None`` for scans."""
        if not hasattr(self, "_filter_attribute"):
            attribute = None
            if self.annotation is not None and self.annotation.filter is not None:
                predicate = self.annotation.bound_filter(schema)
                if predicate is not None:
                    attributes = predicate.attributes(schema)
                    attribute = attributes[0] if attributes else None
            self._filter_attribute = attribute
        return self._filter_attribute
