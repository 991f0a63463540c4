"""``HAILBlockReplicaInfo``: what the namenode's ``Dir_rep`` stores per replica (Section 3.3).

Stock HDFS cannot distinguish replicas — they are byte-equivalent.  HAIL replicas differ in sort
order, index and even size, so the namenode keeps, per ``(block, datanode)`` pair, the detailed
information the scheduler and the input format need: indexing key, index type, sizes and
offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hdfs.checksum import checksum_file_size
from repro.layouts.zonemap import ZoneRanges


@dataclass(frozen=True)
class HailBlockReplicaInfo:
    """Detailed description of one HAIL replica as registered with the namenode."""

    datanode_id: int
    sort_attribute: Optional[str]
    indexed_attribute: Optional[str]
    index_type: str = "sparse_clustered"
    index_size_bytes: int = 0
    block_size_bytes: int = 0
    num_records: int = 0
    index_offset_bytes: int = 0
    #: False for row-layout replicas (Hadoop++ trojan blocks, the "no PAX conversion" ablation);
    #: the physical planner uses this to tell projection scans from full scans without opening
    #: the block payload.
    pax_layout: bool = True
    #: ``"upload"`` for replicas indexed by the HAIL upload pipeline, ``"adaptive"`` for
    #: replicas whose index was built lazily as a by-product of query execution (LIAH),
    #: ``"evicted"`` for replicas whose adaptive index was reclaimed by disk-pressure
    #: eviction (a plain replica again); eviction/budget policies and the failure tests key
    #: on this.
    origin: str = "upload"
    #: True when this adaptive replica physically *displaced* a plain (unindexed) replica at
    #: commit time.  Eviction then downgrades it back to a plain replica instead of deleting
    #: it, so the block's replication factor survives arbitrarily many build/evict cycles.
    displaced_plain_replica: bool = False
    #: Block-level min-max synopsis, one ``(attribute, min, max)`` triple per attribute, or
    #: ``None`` when no synopsis was registered.  The physical planner consults it for
    #: zone-map block skipping without opening any payload; executors re-verify skips against
    #: the payload's own zone map, so a stale entry here degrades to a full scan (fail
    #: closed), never to a wrong answer.
    zone_ranges: Optional[ZoneRanges] = None

    @property
    def is_adaptive(self) -> bool:
        """True when this replica was created by adaptive (lazy) indexing."""
        return self.origin == "adaptive"

    @property
    def size_on_disk_bytes(self) -> int:
        """Bytes this replica occupies on its datanode, including its checksum file.

        This is the amount evicting the replica frees — the adaptive-index lifecycle manager
        uses it to decide how many LRU candidates it must drop to satisfy a
        :class:`~repro.cluster.disk.DiskPressurePolicy`.
        """
        return self.block_size_bytes + checksum_file_size(self.block_size_bytes)

    def describe(self) -> dict:
        """Dictionary form used by reports."""
        return {
            "datanode": self.datanode_id,
            "sort_attribute": self.sort_attribute,
            "indexed_attribute": self.indexed_attribute,
            "index_type": self.index_type,
            "index_size_bytes": self.index_size_bytes,
            "block_size_bytes": self.block_size_bytes,
            "num_records": self.num_records,
            "pax_layout": self.pax_layout,
            "origin": self.origin,
            "zone_ranges": len(self.zone_ranges) if self.zone_ranges is not None else 0,
        }
