"""Access paths and per-block physical plans.

HAIL's core runtime decision (Sections 4.1–4.3 of the paper) is made *per block*: which replica
to open and how to read it — via the replica's clustered index, via a PAX projection scan that
touches only the needed minipages, or via a plain full scan.  Historically that decision was
buried inside the record readers; here it is an explicit, inspectable plan object so that
schedulers, readers and reports all share one source of truth (and so that ``explain()`` can
show what a query will actually do before it runs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class AccessPath(enum.Enum):
    """How one block of the input is physically read."""

    #: Range lookup in the replica's sparse clustered index, then read only the qualifying
    #: PAX partitions of the needed columns (HAIL, Section 4.3 / Figure 2).
    INDEX_SCAN = "index_scan"
    #: No usable index, but the replica is stored in PAX: scan only the columns the predicate
    #: and projection touch, skipping all other minipages.
    PAX_PROJECTION_SCAN = "pax_projection_scan"
    #: Read the whole block and examine every record (stock Hadoop text blocks, or row-layout
    #: binary blocks without a matching index).
    FULL_SCAN = "full_scan"
    #: Range lookup in a Hadoop++ trojan index over a row-layout block: one contiguous row
    #: range, no per-column pruning and no PAX tuple reconstruction (Section 2 / Figure 7(b)).
    TROJAN_INDEX_SCAN = "trojan_index_scan"
    #: A scan that *pays forward* (LIAH-style adaptive indexing): the block is answered exactly
    #: like a full/projection scan, but as a by-product the executor sorts the data it read,
    #: builds a clustered index on the filter attribute and stages an indexed replica so that
    #: subsequent queries on this block upgrade to :attr:`INDEX_SCAN`.
    ADAPTIVE_INDEX_BUILD = "adaptive_index_build"
    #: The block's ``Dir_rep`` zone-map synopsis proves no row can satisfy the predicate: the
    #: reader opens the replica only to verify the synopsis against the payload (fail-closed)
    #: and to surface bad records, reading no data columns at all.  A verification mismatch
    #: degrades the block to a full scan at execution time.
    ZONE_MAP_SKIP = "zone_map_skip"

    @property
    def uses_index(self) -> bool:
        """True for the two index-backed access paths (an adaptive build still *scans*)."""
        return self in (AccessPath.INDEX_SCAN, AccessPath.TROJAN_INDEX_SCAN)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


@dataclass(slots=True)
class BlockPlan:
    """The physical plan for one block: chosen replica plus access path.

    Attributes
    ----------
    block_id:
        The logical HDFS block this plan reads.
    access_path:
        How the block is read (see :class:`AccessPath`).
    datanode_id:
        Datanode whose replica the reader opens (``-1`` when no alive replica exists; opening
        such a plan raises the usual ``ReplicaNotFoundError``).
    attribute:
        Index attribute the access path exploits (``None`` for scans).
    estimated_rows:
        Records the executor is expected to examine (from the namenode's ``Dir_rep``; the whole
        block for scans — index scans refine this at execution time).
    estimated_bytes:
        Replica bytes the access path is expected to touch.
    fallback_reason:
        Why a cheaper access path was *not* chosen (``None`` when the best path was available),
        e.g. ``"no replica indexed on visitDate"`` or — for blocks whose indexed replica exists
        but sits on a dead datanode — ``"indexed replica of visitDate lost (dn2 dead)"``.
    build_attribute:
        The attribute whose clustered index this block's execution builds as a by-product
        (``None`` when nothing is built).  Set only for :attr:`AccessPath.ADAPTIVE_INDEX_BUILD`
        plans.
    build_seconds:
        Simulated seconds the adaptive build added on top of the plain scan (sort, index
        construction, replica write) — the incremental "indexing penalty" of LIAH's Figure-style
        convergence curves.
    index_hosts:
        Every alive datanode whose replica is indexed on one of the query's filter attributes,
        in filter-attribute order (the planner's ``getHostsWithIndex`` walk); HAIL's split
        phase turns it into ``InputSplit.index_locations``.  Split-phase metadata: not compared,
        since it does not change how the block is read.
    replica_info:
        The ``Dir_rep`` entry the plan was classified from.  A reader executes a carried plan
        only while this is still the registered entry of its replica (compared by identity).
    """

    block_id: int
    access_path: AccessPath
    datanode_id: int
    attribute: Optional[str] = None
    estimated_rows: float = 0.0
    estimated_bytes: float = 0.0
    fallback_reason: Optional[str] = None
    build_attribute: Optional[str] = None
    build_seconds: float = 0.0
    index_hosts: tuple[int, ...] = field(default=(), compare=False)
    replica_info: Any = field(default=None, compare=False, repr=False)

    @property
    def uses_index(self) -> bool:
        """True when this plan answers the block with an index scan."""
        return self.access_path.uses_index

    @property
    def builds_index(self) -> bool:
        """True when this plan is a scan that pays forward: an adaptive index build."""
        return self.access_path is AccessPath.ADAPTIVE_INDEX_BUILD

    def __copy__(self) -> "BlockPlan":
        # For speed: the planner copies the plan of every block it executes
        # (``PhysicalPlanner.for_execution`` calls this directly).  The default ``copy.copy``
        # goes through ``__reduce_ex__`` and ``copyreg`` and costs as much as
        # ``dataclasses.replace``, which also re-runs ``__init__``.  Every field, one slot each.
        copied = object.__new__(BlockPlan)
        copied.block_id = self.block_id
        copied.access_path = self.access_path
        copied.datanode_id = self.datanode_id
        copied.attribute = self.attribute
        copied.estimated_rows = self.estimated_rows
        copied.estimated_bytes = self.estimated_bytes
        copied.fallback_reason = self.fallback_reason
        copied.build_attribute = self.build_attribute
        copied.build_seconds = self.build_seconds
        copied.index_hosts = self.index_hosts
        copied.replica_info = self.replica_info
        return copied

    def describe(self) -> str:
        """One-line rendering used by :meth:`QueryPlan.explain`."""
        target = f"replica@dn{self.datanode_id}" if self.datanode_id >= 0 else "no-replica"
        parts = [f"block {self.block_id}: {self.access_path.value:<19} {target}"]
        if self.attribute is not None:
            parts.append(f"on {self.attribute}")
        parts.append(f"~{int(self.estimated_rows)} rows, ~{int(self.estimated_bytes)} B")
        if self.build_attribute is not None:
            parts.append(f"+build({self.build_attribute})")
        if self.fallback_reason:
            parts.append(f"[{self.fallback_reason}]")
        return "  ".join(parts)
