"""The HailRecordReader (Section 4.3).

Since the unified query-execution engine (:mod:`repro.engine`) was extracted, this reader is a
thin shell.  It executes the plan its job's split phase made and binds nothing itself: the
job's input format binds the job's ``@HailQuery`` to the file's schema once
(:class:`~repro.engine.planner.BoundQuery`) and keeps the job's
:class:`~repro.engine.planner.QueryPlan`, which it hands to every reader of the job.  HAIL's
:class:`~repro.hail.input_format.HailInputFormat` also plans the whole file there
(``getHostsWithIndex`` per block, Section 4.3; once per query shape and layout write to the
block, through the deployment's :class:`~repro.hail.input_format.SplitMemo`).  A block's carried
:class:`~repro.engine.access_path.BlockPlan` runs as is when

- the split pinned the block to the plan's replica (``InputSplit.preferred_replicas``),
- that replica's datanode is still alive, and
- its ``Dir_rep`` entry is still the one the plan was classified from.

Every other block is re-planned by the :class:`~repro.engine.planner.PhysicalPlanner` under the
plan's bound query: an unpinned block (default splitting without an index chooses the local
replica), the Figure 8 failover (pinned host dead), a replica a concurrent job's commit,
eviction or migration replaced (fail closed), and every block of Hadoop++'s trojan format (its
split phase plans no block).  Either way a copy of the plan goes to the
:class:`~repro.engine.executor.VectorizedExecutor`, together with the plan's bound query, which

1. opens an input stream to the planned replica (the one carrying the matching clustered index;
   standard scanning when no matching index is alive),
2. reads the index directory into main memory (a few KB) and looks up the qualifying partitions,
3. reads exactly those partitions of the needed columns from disk, post-filters them with the
   full predicate (the indexed clause by bisecting the sorted window, the others
   column-at-a-time), and takes the projected attributes of the qualifying rows as columns.

The reader hands each block's result on whole (``batches()``; the systems' scans take its
:data:`projected_columns`, and only a consumer that wants rows zips them); only the per-record
view rebuilds rows from PAX to row layout, wrapped as
:class:`~repro.hail.record.HailRecord`\\ s for a user's map function, with bad records passed
through flagged as bad.  The simulated RecordReader time
charged by the executor is what Figures 6(b) and 7(b) report.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Optional

from repro.cluster.costmodel import CostModel
from repro.engine.access_path import BlockPlan
from repro.engine.adaptive import AdaptiveJobContext
from repro.engine.executor import BlockScanResult, VectorizedExecutor
from repro.engine.planner import PhysicalPlanner, QueryPlan
from repro.hail.record import HailRecord
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.record_reader import RecordReader
from repro.mapreduce.split import InputSplit


#: A block's column batch: the reader has selected and projected it already, so handing it on
#: is all a HAIL or Hadoop++ scan's map function does before its consumer's ``emit``.
projected_columns = attrgetter("projected")


def projected_row(record: HailRecord) -> Optional[tuple]:
    """One record's row, the per-record twin of :data:`projected_columns`: ``None`` if bad."""
    return None if record.bad else record.as_tuple()


class HailRecordReader(RecordReader):
    """Index scan (or PAX scan fallback) over HAIL replicas, with selection and projection.

    Counts each executed block into ``self.counters`` straight from its ``BlockScanResult``:
    adaptive index uses and their measured savings, zone-map skips and pruned bytes, scan
    fallbacks — the sliced ones also under ``NAME[attribute]``.  The task merges the bag.

    ``plan`` is the job's :class:`~repro.engine.planner.QueryPlan`, kept by its input format's
    split phase (``get_splits`` runs before any reader is built): HAIL's carries every block's
    plan, Hadoop++'s trojan format only the bound query (every block planned here).
    ``zone_maps`` and ``adaptive`` come from the job's input format too: HAIL's passes its
    config's zone-map switch and the job's adaptive-indexing context; the trojan format passes
    neither (no synopses to skip by, nothing to build).
    """

    def __init__(
        self, split: InputSplit, hdfs: Hdfs, cost: CostModel, node_id: int, plan: QueryPlan,
        zone_maps: bool = False, adaptive: Optional[AdaptiveJobContext] = None,
    ) -> None:
        super().__init__(split, hdfs, cost, node_id)
        self.planner = PhysicalPlanner(hdfs, zone_maps=zone_maps)
        self.executor = VectorizedExecutor(hdfs, cost, node_id, zone_maps=zone_maps)
        #: The job's adaptive-indexing policy; ``None`` keeps the reader purely read-only.
        self.adaptive = adaptive
        #: The split phase's plan: the job's bound query and the block plans made there.
        self.plan = plan

    # ------------------------------------------------------------------ iteration
    def batches(self) -> Iterator[BlockScanResult]:
        """One :class:`~repro.engine.executor.BlockScanResult` per block: plan, execute, count."""
        bound = self.plan.bound
        attributes = bound.filter_attributes
        # Fallbacks are attributed to the query's *first* filter attribute — the same
        # attribute an adaptive build of the block would target.  The slices feed the
        # placement balancer's demand tracking.
        fallback_attribute = attributes[0] if attributes else None
        for block_id in self.split.block_ids:
            plan = self._carried(block_id)
            if plan is None:
                plan = self.planner.plan_block(
                    block_id,
                    bound,
                    preferred=self.split.preferred_replicas.get(block_id),
                    prefer_node=self.node_id,
                )
            plan = self.planner.for_execution(plan, bound, self.adaptive)
            scan = self.executor.execute(plan, bound, adaptive=self.adaptive)
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
                # so it must not count as a full scan nor feed the adaptive tuner's ledger.
                counters.increment(Counters.ZONE_MAP_SKIPPED_BLOCKS)
            else:
                counters.increment(Counters.SCAN_FALLBACK_BLOCKS, attribute=fallback_attribute)

            self.records_emitted += len(scan.rows) + len(scan.bad_lines)
            yield scan

    def _carried(self, block_id: int) -> Optional[BlockPlan]:
        """The split phase's plan of ``block_id`` if it still holds here, else ``None``.

        It holds when the split pinned the block to the plan's replica, that replica's
        datanode is alive (the Figure 8 failover re-plans), and its ``Dir_rep`` entry is still
        the one the plan was classified from (a concurrent job's commit, eviction or migration
        re-plans: the one replica-mutation edge, ``Hdfs.install_replica``/``remove_replica``,
        registers a new entry).  A plan that found no alive replica (``datanode_id`` -1) is
        re-planned too: the executor then raises ``ReplicaNotFoundError`` unless one came back.
        """
        plan = self.plan.plan_for(block_id)
        if (
            plan is None
            or plan.datanode_id < 0
            or self.split.preferred_replicas.get(block_id) != plan.datanode_id
        ):
            return None
        namenode = self.hdfs.namenode
        if not (
            self.hdfs.cluster.node(plan.datanode_id).is_alive
            and namenode.has_replica(block_id, plan.datanode_id)
        ):
            return None
        if namenode.replica_info(block_id, plan.datanode_id) is not plan.replica_info:
            return None
        return plan

    @staticmethod
    def records_of(batch: BlockScanResult) -> Iterator[tuple]:
        """``(row id, HailRecord)`` per qualifying row, then the block's bad records."""
        schema, positions = batch.schema, batch.positions
        for row_id, values in zip(batch.rows, batch.projected.rows()):
            yield row_id, HailRecord(schema, values, positions)
        # Bad records are handed to the map function unchanged, flagged as bad (Section 4.3).
        for line in batch.bad_lines:
            yield -1, HailRecord(schema, (), positions=(), bad=True, raw_line=line)
