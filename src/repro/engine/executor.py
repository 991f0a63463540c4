"""The vectorized block executor.

Given a :class:`~repro.engine.access_path.BlockPlan` the executor opens the planned replica,
evaluates the selection predicate *column-at-a-time* over the candidate PAX partitions (instead
of the row-at-a-time post-filter loops the record readers used to carry), reconstructs the
projected attributes only for qualifying positions, and charges the exact same simulated cost
the readers charged before the refactor — the "RecordReader time" of Figures 6(b) and 7(b).

The predicate kernels live in :mod:`repro.engine.kernels` (a dispatch module with a pure-Python
reference backend built on per-operator comprehension tables and an optional numpy fast path
reading :data:`repro.hail.predicate.COMPARE`); :func:`vectorized_filter` is the executor's
entry point into them.  With zone maps enabled the executor additionally flags the candidate
rows whose partitions its min-max synopsis rules out, and executes planner-ordered
``ZONE_MAP_SKIP`` blocks — after re-verifying the synopsis against the payload, failing closed
to a full scan on any mismatch.

The record reader hands the executor the query its plan carries: a
:class:`~repro.engine.planner.BoundQuery`, bound once per job.  Per block the executor reads
its predicate, projection and column indexes and sums the opened payload's carried column
sizes over them; it trusts those fields only while the payload's schema is the very object
they were bound to, and rebinds from the annotation otherwise (fail closed).  The executing
node's disk and CPU models are resolved once per executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.cluster.costmodel import CostModel
from repro.engine import kernels
from repro.engine.access_path import AccessPath, BlockPlan
from repro.engine.adaptive import PendingIndexBuild
from repro.engine.planner import BoundQuery
from repro.hdfs.block import Replica, TextBlockPayload
from repro.hdfs.checksum import checksum_file_size
from repro.hdfs.errors import ReplicaNotFoundError
from repro.hdfs.filesystem import Hdfs
from repro.layouts.pax import PaxBlock
from repro.layouts.schema import Schema

if TYPE_CHECKING:  # imported lazily at runtime: repro.hail's __init__ imports us back
    from repro.engine.adaptive import AdaptiveJobContext
    from repro.hail.annotation import HailQuery
    from repro.hail.index import IndexLookup
    from repro.hail.predicate import Predicate


# --------------------------------------------------------------------------- predicate kernels
def vectorized_filter(
    pax: PaxBlock, predicate: Optional[Predicate], schema: Schema, lookup: IndexLookup
) -> list[int]:
    """Row ids inside ``lookup`` that satisfy the (full) predicate, evaluated columnar.

    Equivalent to the classic row-at-a-time loop (``for row: for clause: ...``) but evaluated
    by the active :mod:`repro.engine.kernels` backend: the pure-Python reference backend scans
    each clause's minipage slice once and refines a surviving-position list (tracking the
    surviving-row count as it ANDs, with no per-clause ``any(mask)`` pass), while the optional
    numpy backend runs the same comparisons over packed 64-bit column views.  Clauses keep
    their written order; evaluation stops early when no candidate survives.
    """
    return kernels.filter_range(pax, predicate, schema, lookup.start_row, lookup.end_row)


# --------------------------------------------------------------------------- execution results
@dataclass
class BlockScanResult:
    """Everything a record reader needs after one block was executed."""

    plan: BlockPlan
    schema: Schema
    rows: list[int]
    projected: list[tuple]
    positions: tuple[int, ...]
    bad_lines: list[str]
    seconds: float
    bytes_read: float
    used_index: bool
    #: Adaptive index staged as a by-product of this scan (``None`` for plain scans); the
    #: input format commits it after the map phase via ``commit_adaptive_builds``.
    pending_build: Optional[PendingIndexBuild] = None
    #: True when the block was answered via a replica whose index was built *adaptively* —
    #: the lifecycle tuner counts these as uses of past builds.
    used_adaptive_index: bool = False
    #: Measured scan savings of an adaptive-index use: the counterfactual cost of answering
    #: this block with a scan minus the actual index-scan cost (0.0 otherwise).  Feeds the
    #: tuner's benefit ledger (build cost is charged when the index is built; savings accrue
    #: on every later use).
    saved_seconds: float = 0.0
    #: True when the block was answered by a *verified* zone-map skip: the payload's own
    #: synopsis confirmed no row can match, so no data column was read at all.
    zone_map_skipped: bool = False
    #: Data-column bytes zone maps saved this block from reading — the whole candidate column
    #: set for a verified skip, the pruned partitions' share for partition-level pruning.
    zone_map_pruned_bytes: float = 0.0


@dataclass
class TextScanResult:
    """Result of a full text-block scan (stock Hadoop's access path)."""

    plan: BlockPlan
    lines: Sequence[str]
    seconds: float
    bytes_read: float


class VectorizedExecutor:
    """Executes :class:`BlockPlan`\\ s: opens the replica, filters columnar, charges cost."""

    def __init__(
        self, hdfs: Hdfs, cost: CostModel, node_id: int, zone_maps: bool = False
    ) -> None:
        self.hdfs = hdfs
        self.cost = cost
        self.node_id = node_id
        #: When True, candidate windows are pruned against the payload's per-partition zone
        #: map and planner-ordered ZONE_MAP_SKIP plans are executed (after verification).
        self.zone_maps = zone_maps
        # The executing node and its cost models, resolved once per executor.
        self._node = hdfs.cluster.node(node_id)
        self._disk = cost.disk(self._node)
        self._cpu = cost.cpu(self._node)

    # ------------------------------------------------------------------ PAX / HAIL blocks
    def execute(
        self,
        plan: BlockPlan,
        annotation: Union[HailQuery, BoundQuery, None],
        adaptive: Optional[AdaptiveJobContext] = None,
    ) -> BlockScanResult:
        """Run one planned block: candidate lookup, vectorized filter, projection, cost.

        ``annotation`` is the query: the :class:`~repro.engine.planner.BoundQuery` the job's
        plan carries, used as is while the payload's schema is the very object it was bound
        to and rebound from its annotation otherwise (fail closed), or a ``@HailQuery`` to
        bind here.  ``adaptive`` carries the job's adaptive-indexing context: staged replicas
        honour its checksum option, and a cancelled build (stale ``Dir_rep``) refunds its
        budget slot.  The *decision* to build was already made by the planner via the plan's
        access path.
        """
        from repro.hail.hail_block import HailBlock  # local: hail_block imports our kernels

        replica = self._open(plan)
        payload = replica.payload
        if not isinstance(payload, HailBlock):
            raise TypeError(
                f"HailRecordReader expects HAIL replicas, found {payload.layout!r}; "
                "was the file uploaded with the HAIL pipeline?"
            )
        schema = payload.schema
        bound = BoundQuery.of(annotation, schema)
        predicate = bound.predicate
        pax = payload.pax
        read_indexes = bound.read_indexes(payload.pax_layout)

        pruning_allowed = self.zone_maps
        if plan.access_path is AccessPath.ZONE_MAP_SKIP:
            skip = self._execute_zone_map_skip(plan, replica, payload, bound, read_indexes)
            if skip is not None:
                return skip
            # Verification failed: the Dir_rep synopsis was stale.  Fail closed — run the
            # block as a normal scan with all zone-map pruning disabled, and let _reconcile
            # relabel the access path from the payload ground truth below.
            pruning_allowed = False
            plan.attribute = None
            plan.fallback_reason = "stale zone map synopsis"

        if predicate is not None:
            lookup, used_index = payload.candidate_rows(predicate)
        else:
            # No filter: the whole block qualifies (a plain PAX scan).
            lookup = payload.whole_block_lookup()
            used_index = False

        pruned: Optional[bytes] = None
        zone_pruned_rows = 0
        zone_pruned_bytes = 0.0
        if pruning_allowed and predicate is not None and payload.num_records:
            zone_map = payload.zone_map
            # Fail-closed staleness guard: a synopsis sized for different data is ignored.
            if zone_map.matches(payload.num_records):
                pruned = zone_map.pruned_rows(
                    predicate, schema, lookup.start_row, lookup.end_row, kernels.zone_flags
                )
                if pruned is not None:
                    zone_pruned_rows = pruned.count(1)
                    column_bytes = pax.indexed_size_bytes(read_indexes)
                    zone_pruned_bytes = (
                        zone_pruned_rows / max(1, payload.num_records)
                    ) * column_bytes

        matching_rows = kernels.filter_ranges(
            pax, predicate, schema, lookup.start_row, lookup.end_row, pruned
        )
        projected = pax.project(matching_rows, bound.projection_indexes)

        seconds, read_bytes = self._charge_block(
            replica,
            payload,
            lookup,
            len(matching_rows),
            bound,
            read_indexes,
            used_index,
            num_candidate_rows=lookup.num_rows - zone_pruned_rows,
        )

        saved_seconds = 0.0
        used_adaptive_index = False
        if used_index and adaptive is not None and adaptive.measure_savings:
            info = self.hdfs.namenode.replica_info(plan.block_id, plan.datanode_id)
            if info is not None and info.is_adaptive:
                # The block was answered by a previously built adaptive index: measure what a
                # scan of the same replica would have cost (pure cost-model arithmetic over a
                # whole-block lookup) and credit the difference to the tuner's ledger.
                used_adaptive_index = True
                scan_seconds, _ = self._charge_block(
                    replica,
                    payload,
                    payload.whole_block_lookup(),
                    len(matching_rows),
                    bound,
                    read_indexes,
                    used_index=False,
                )
                saved_seconds = max(0.0, scan_seconds - seconds)

        pending_build: Optional[PendingIndexBuild] = None
        if plan.build_attribute is not None:
            if predicate is None or used_index:
                # Dir_rep was stale: the opened payload already answers via an index, so
                # there is nothing to pay forward; the charged budget slot goes back to the
                # job and _reconcile relabels the plan below.
                if adaptive is not None:
                    adaptive.refund(plan.block_id, plan.build_attribute)
                plan.build_attribute = None
            else:
                pending_build = self._build_adaptive(plan, replica, payload, read_indexes, adaptive)
                seconds += plan.build_seconds
                # The build fetched the columns the scan skipped: account those reads so
                # BYTES_READ stays consistent with the charged I/O time.
                read_bytes += pending_build.bytes_read

        self._reconcile(plan, payload, used_index, bound.projection, lookup, read_bytes)
        return BlockScanResult(
            plan=plan,
            schema=schema,
            rows=matching_rows,
            projected=projected,
            positions=bound.positions,
            bad_lines=list(payload.bad_lines),
            seconds=seconds,
            bytes_read=read_bytes,
            used_index=used_index,
            pending_build=pending_build,
            used_adaptive_index=used_adaptive_index,
            saved_seconds=saved_seconds,
            zone_map_pruned_bytes=zone_pruned_bytes,
        )

    def _execute_zone_map_skip(
        self,
        plan: BlockPlan,
        replica: Replica,
        payload,
        bound: BoundQuery,
        read_indexes: Sequence[int],
    ) -> Optional[BlockScanResult]:
        """Execute a planner-ordered skip, or ``None`` when verification fails (fail closed).

        The skip is only honoured when the *payload's own* synopsis — derived from the rows
        actually stored, not from ``Dir_rep`` — confirms both that it covers the current row
        count and that no row can match the predicate.  A confirmed skip reads no data
        columns: only the block metadata and the bad-record section are touched (bad records
        are always surfaced — skipping changes what is read, never what is returned).
        """
        schema = payload.schema
        predicate = bound.predicate
        zone_map = payload.zone_map
        confirmed = (
            predicate is not None
            and zone_map.matches(payload.num_records)
            and not zone_map.may_match(predicate, schema)
        )
        if not confirmed:
            return None
        bad_bytes = payload.bad_records_size_bytes()
        seconds = self.cost.reader_setup() + self._charge_transfer(replica, bad_bytes)
        pruned_bytes = float(payload.pax.indexed_size_bytes(read_indexes))
        plan.estimated_rows = 0
        plan.estimated_bytes = bad_bytes
        return BlockScanResult(
            plan=plan,
            schema=schema,
            rows=[],
            projected=[],
            positions=bound.positions,
            bad_lines=list(payload.bad_lines),
            seconds=seconds,
            bytes_read=float(bad_bytes),
            used_index=False,
            zone_map_skipped=True,
            zone_map_pruned_bytes=pruned_bytes,
        )

    # ------------------------------------------------------------------ text blocks
    def execute_text(self, plan: BlockPlan) -> TextScanResult:
        """Run one planned text block: full sequential scan, one record per line."""
        replica = self._open(plan)
        payload = replica.payload
        if not isinstance(payload, TextBlockPayload):
            raise TypeError(
                f"TextRecordReader expects text replicas, found {payload.layout!r}"
            )
        block_bytes = payload.size_bytes()
        seconds = self.cost.reader_setup()
        seconds += self._charge_transfer(replica, block_bytes)
        # Finding line boundaries, splitting attributes and building per-row objects is the
        # CPU side of the full scan.
        seconds += self._cpu.scan_text(
            self.cost.scale_bytes(block_bytes), self.cost.scale_count(len(payload.lines))
        )
        plan.estimated_rows = len(payload.lines)
        plan.estimated_bytes = block_bytes
        return TextScanResult(
            plan=plan, lines=payload.lines, seconds=seconds, bytes_read=block_bytes
        )

    # ------------------------------------------------------------------ adaptive index builds
    def _build_adaptive(
        self,
        plan: BlockPlan,
        replica: Replica,
        payload,
        read_indexes: Sequence[int],
        adaptive: Optional[AdaptiveJobContext],
    ) -> PendingIndexBuild:
        """Stage an indexed replica of the just-scanned block (LIAH's piggybacked build).

        The task already holds the block's candidate columns in memory; building the index
        means fetching the columns the scan skipped, sorting everything by the filter
        attribute, writing the clustered index and flushing the new replica to the executing
        node's local disk.  The payload is already columnar, so the build works directly on
        the PAX minipages (sort-permute + reorder) instead of round-tripping through row
        tuples.  Nothing touches HDFS metadata here — the staged build is only committed (by
        ``commit_adaptive_builds``) if this task attempt survives the job.
        """
        attribute = plan.build_attribute
        # The staged replica keeps the source replica's physical layout: under the "no PAX
        # conversion" ablation an adaptive rebuild stays row-wise, so the ablation's cost
        # shape is preserved instead of silently converging to PAX behaviour.
        block = payload.resorted(attribute)
        remaining_bytes = self._build_read_bytes(payload, read_indexes)
        seconds, write_bytes = self._charge_adaptive_build(
            replica, payload, block, remaining_bytes
        )
        plan.build_seconds = seconds
        checksums: tuple[int, ...] = ()
        if adaptive is not None and adaptive.verify_checksums:
            from repro.hdfs.checksum import chunk_checksums

            checksums = tuple(chunk_checksums(block.pax.to_bytes()))
        replica = Replica(
            block_id=plan.block_id,
            datanode_id=self.node_id,
            payload=block,
            checksums=checksums,
            sort_attribute=attribute,
            indexed_attribute=attribute,
        )
        return PendingIndexBuild(
            block_id=plan.block_id,
            datanode_id=self.node_id,
            attribute=attribute,
            replica=replica,
            info=block.replica_info(self.node_id, origin="adaptive"),
            build_seconds=seconds,
            bytes_written=float(write_bytes),
            bytes_read=remaining_bytes,
        )

    def _charge_adaptive_build(
        self, replica: Replica, payload, new_block, remaining_bytes: float
    ) -> tuple[float, float]:
        """Incremental cost of the piggybacked build, through the same per-node cost models.

        The scan already read the predicate/projection columns, so only ``remaining_bytes`` of
        skipped columns are fetched (over the network when the scanned replica is remote, the
        same way the scan's own reads are charged); then the block is sorted in memory, the
        sparse index directory is written, checksums are recomputed (the new replica has
        different bytes) and the replica is flushed sequentially.  All terms are per-core — a
        map task is single-threaded, unlike the upload pipeline which spreads this work over
        all cores of a datanode.
        """
        cpu = self._cpu
        seconds = 0.0
        if remaining_bytes:
            seconds += self._charge_transfer(replica, remaining_bytes)

        logical_values = int(self.cost.scale_count(payload.num_records))
        pax_bytes = payload.data_size_bytes()
        seconds += cpu.sort_block(logical_values, self.cost.scale_bytes(pax_bytes))
        seconds += cpu.build_index(logical_values)
        seconds += cpu.checksum(self.cost.scale_bytes(pax_bytes))

        replica_bytes = new_block.size_bytes()
        write_bytes = replica_bytes + checksum_file_size(replica_bytes)
        seconds += self._disk.sequential_write(self.cost.scale_bytes(write_bytes))
        return seconds, float(write_bytes)

    @staticmethod
    def _build_read_bytes(payload, read_indexes: Sequence[int]) -> float:
        """Bytes of the columns an adaptive build must fetch beyond what the scan read."""
        already_read = set(read_indexes)
        return float(
            payload.pax.indexed_size_bytes(
                [index for index in range(len(payload.schema)) if index not in already_read]
            )
        )

    # ------------------------------------------------------------------ cost accounting
    def _charge_block(
        self,
        replica: Replica,
        payload,
        lookup: IndexLookup,
        num_matching: int,
        bound: BoundQuery,
        read_indexes: Sequence[int],
        used_index: bool,
        num_candidate_rows: Optional[int] = None,
    ) -> tuple[float, float]:
        from repro.hail.index import logical_index_size_bytes

        disk = self._disk
        cpu = self._cpu
        pax = payload.pax
        predicate = bound.predicate
        num_records = max(1, payload.num_records)
        # Zone-map partition pruning shrinks the candidate set below the lookup's row range;
        # callers pass the post-pruning count so the charged I/O matches what was read.
        effective_rows = lookup.num_rows if num_candidate_rows is None else num_candidate_rows
        candidate_fraction = min(1.0, max(0, effective_rows) / num_records)
        qualifying_fraction = min(1.0, num_matching / num_records)
        logical_rows = self.cost.scale_count(payload.num_records)
        candidate_rows = candidate_fraction * logical_rows
        qualifying_rows = qualifying_fraction * logical_rows

        column_bytes = pax.indexed_size_bytes(read_indexes)
        candidate_bytes = candidate_fraction * column_bytes
        bad_bytes = payload.bad_records_size_bytes()
        read_bytes = candidate_bytes + bad_bytes

        seconds = self.cost.reader_setup()
        if used_index:
            # Read the index directory entirely into main memory (one seek + a few KB).
            logical_index_bytes = logical_index_size_bytes(
                logical_rows, payload.logical_partition_size
            )
            seconds += disk.random_read(logical_index_bytes, num_seeks=1)
            # Read only the qualifying partitions: one seek per column minipage in PAX layout,
            # a single contiguous range in row layout (the Hadoop++ trojan blocks).
            data_seeks = len(read_indexes) if payload.pax_layout else 1
            seconds += disk.random_read(self.cost.scale_bytes(read_bytes), num_seeks=data_seeks)
            # Post-filter only the candidate partitions.
            if predicate is not None:
                filter_bytes = candidate_fraction * pax.indexed_size_bytes(bound.filter_indexes)
                seconds += cpu.post_filter(self.cost.scale_bytes(filter_bytes), candidate_rows)
        else:
            # Scan fallback: the needed columns (or whole rows) are read sequentially in full
            # and every record is examined.
            seconds += disk.sequential_read(self.cost.scale_bytes(read_bytes))
            if payload.pax_layout:
                filter_bytes = candidate_bytes if predicate is None else (
                    candidate_fraction * pax.indexed_size_bytes(bound.filter_indexes)
                )
                seconds += cpu.post_filter(self.cost.scale_bytes(filter_bytes), candidate_rows)
            else:
                seconds += cpu.scan_binary_rows(self.cost.scale_bytes(read_bytes), candidate_rows)

        if replica.datanode_id != self.node_id:
            seconds += self._network_seconds(replica, self.cost.scale_bytes(read_bytes))

        # Reconstruct the projected attributes of the qualifying tuples (PAX to row layout).
        if payload.pax_layout:
            projected_bytes = qualifying_fraction * pax.indexed_size_bytes(
                bound.projection_indexes
            )
            seconds += cpu.reconstruct_tuples(self.cost.scale_bytes(projected_bytes), qualifying_rows)
        else:
            # Row layout: qualifying tuples are already contiguous rows; only the per-record
            # object creation cost remains.
            seconds += cpu.reconstruct_tuples(0.0, qualifying_rows)

        return seconds, read_bytes

    def _charge_transfer(self, replica: Replica, num_bytes: float) -> float:
        """Charge a sequential read of ``num_bytes`` from ``replica`` (remote adds network)."""
        scaled = self.cost.scale_bytes(num_bytes)
        seconds = self._disk.sequential_read(scaled)
        if replica.datanode_id != self.node_id:
            seconds += self._network_seconds(replica, scaled)
        return seconds

    def _network_seconds(self, replica: Replica, scaled_bytes: float) -> float:
        """Shipping ``scaled_bytes`` from ``replica``'s datanode to the executing node."""
        source = self.hdfs.cluster.node(replica.datanode_id)
        locality = self.hdfs.cluster.locality(replica.datanode_id, self.node_id)
        return self.cost.network.transfer(
            scaled_bytes, source.hardware, self._node.hardware, locality
        )

    # ------------------------------------------------------------------ helpers
    def _open(self, plan: BlockPlan) -> Replica:
        if plan.datanode_id < 0:
            raise ReplicaNotFoundError(f"no alive replica of block {plan.block_id}")
        return self.hdfs.read_replica(plan.block_id, plan.datanode_id)

    @staticmethod
    def _reconcile(
        plan: BlockPlan,
        payload,
        used_index: bool,
        projection: Optional[tuple[str, ...]],
        lookup: IndexLookup,
        read_bytes: float,
    ) -> None:
        """Refine the plan with what actually happened (ground truth is the opened payload)."""
        if used_index:
            if plan.uses_index:
                # The planner already told index scans from trojan scans via Dir_rep's
                # index_type; the payload cannot distinguish them (the "no PAX conversion"
                # ablation is row-layout too), so keep the planner's classification.
                actual = plan.access_path
            else:
                actual = (
                    AccessPath.INDEX_SCAN if payload.pax_layout else AccessPath.TROJAN_INDEX_SCAN
                )
            plan.attribute = payload.sort_attribute
        elif plan.access_path is AccessPath.ADAPTIVE_INDEX_BUILD and plan.build_attribute is not None:
            # The scan happened exactly as a full/projection scan would, plus the staged build;
            # keep the ADAPTIVE_INDEX_BUILD label (it is what this attempt actually did).
            actual = plan.access_path
        elif payload.pax_layout and projection is not None:
            actual = AccessPath.PAX_PROJECTION_SCAN
        else:
            actual = AccessPath.FULL_SCAN
        if actual is not plan.access_path:
            plan.access_path = actual
            plan.fallback_reason = plan.fallback_reason or "replica payload disagreed with Dir_rep"
        plan.estimated_rows = lookup.num_rows
        plan.estimated_bytes = read_bytes
