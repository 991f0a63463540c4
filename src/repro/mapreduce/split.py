"""Input splits.

An input split defines the input of one map task.  By default the JobClient creates one split
per HDFS block (Section 4.2); HAIL's splitting policy (Section 4.3) instead maps one split to
*several* blocks when the job can use an index scan, which is what removes most of the framework
scheduling overhead (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class InputSplit:
    """The unit of work of one map task.

    Attributes
    ----------
    split_id:
        Sequential id within the job.
    path:
        HDFS path the split belongs to.
    block_ids:
        Logical blocks covered by the split (one for stock Hadoop, possibly many for HAIL).
    locations:
        Preferred datanodes for scheduling (``getHosts`` of the underlying blocks, or the
        datanodes holding the matching index for HAIL).
    length_bytes:
        Functional byte length of the split's input (used for reporting only).
    preferred_replicas:
        Optional map ``block_id -> datanode_id`` naming the replica the record reader should
        open for each block (HAIL's ``getHostsWithIndex`` decision).
    index_locations:
        Datanodes holding, for at least one block of the split, a replica whose clustered
        index covers one of the job's filter attributes.  Empty for scan jobs and for input
        formats that do not compute it; when the job's input format asks for
        ``index_aware_scheduling``, the JobTracker prefers these nodes over plain data
        locality.
    """

    split_id: int
    path: str
    block_ids: tuple[int, ...]
    locations: tuple[int, ...]
    length_bytes: int = 0
    preferred_replicas: dict = field(default_factory=dict, hash=False, compare=False)
    index_locations: tuple[int, ...] = ()

    @property
    def num_blocks(self) -> int:
        """Number of blocks covered by this split."""
        return len(self.block_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InputSplit(id={self.split_id}, blocks={len(self.block_ids)}, "
            f"locations={self.locations})"
        )
