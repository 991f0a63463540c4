"""The HDFS namenode.

The namenode keeps the file namespace and ``Dir_block``: the mapping from block id to the set of
datanodes storing a replica of it (Section 3.3).  Stock HDFS treats all replicas of a block as
byte-equivalent; HAIL adds a second directory ``Dir_rep`` mapping ``(block id, datanode)`` to a
``HAILBlockReplicaInfo`` describing the sort order and clustered index of that particular
replica, which is what allows the MapReduce scheduler to route map tasks to the replica with the
matching index.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.cluster.topology import Cluster
from repro.hdfs.block import BlockLocation, LogicalBlock
from repro.hdfs.errors import (
    BlockNotFoundError,
    FileAlreadyExistsError,
    FileNotFoundInHdfsError,
)


class NameNode:
    """Central metadata service: namespace, block directory, and HAIL's replica directory."""

    def __init__(self, cluster: Cluster, replication: int = 3) -> None:
        if replication < 1:
            raise ValueError("replication factor must be at least 1")
        self._cluster = cluster
        self.replication = replication
        self._next_block_id = 0
        #: path -> ordered list of block ids
        self._files: Dict[str, List[int]] = {}
        #: Dir_block: block id -> ordered list of datanode ids holding a replica
        self._dir_block: Dict[int, List[int]] = {}
        #: block id -> logical block metadata (path, record counts)
        self._blocks: Dict[int, LogicalBlock] = {}
        #: Dir_rep: (block id, datanode id) -> HAILBlockReplicaInfo (opaque to stock HDFS)
        self._dir_rep: Dict[tuple[int, int], Any] = {}
        #: Index-usage statistics: (block id, datanode id) -> [use count, last-used tick].
        #: The physical planner touches an entry whenever it plans an index scan over that
        #: replica; the adaptive-index lifecycle manager orders eviction candidates by these
        #: statistics (least-recently-used first).
        self._index_usage: Dict[tuple[int, int], list[int]] = {}
        #: Logical clock driving the last-used ticks (one tick per planned index use).
        self._usage_tick = 0
        #: Eviction tombstones: (block id, indexed attribute) -> datanode the adaptive replica
        #: was evicted from.  Lets the planner report "evicted (disk pressure on dnN)" instead
        #: of "no replica indexed"; cleared as soon as a replica indexed on that attribute is
        #: registered again (the adaptive rebuild).
        self._evictions: Dict[tuple[int, str], int] = {}

    # ------------------------------------------------------------------ namespace
    def create_file(self, path: str) -> None:
        """Create an empty file entry; HDFS files are write-once."""
        if path in self._files:
            raise FileAlreadyExistsError(f"path already exists in HDFS: {path!r}")
        self._files[path] = []

    def file_exists(self, path: str) -> bool:
        """True if ``path`` is a file in the namespace."""
        return path in self._files

    def list_files(self) -> list[str]:
        """All file paths, sorted."""
        return sorted(self._files)

    def file_blocks(self, path: str) -> list[int]:
        """Ordered block ids of a file."""
        try:
            return list(self._files[path])
        except KeyError:
            raise FileNotFoundInHdfsError(f"no such file: {path!r}") from None

    # ------------------------------------------------------------------ block allocation
    def allocate_block(
        self,
        path: str,
        logical_block: LogicalBlock,
        client_node: Optional[int] = None,
        replication: Optional[int] = None,
    ) -> tuple[int, list[int]]:
        """Allocate a new block for ``path`` and choose the datanodes of its upload pipeline.

        Returns ``(block_id, pipeline)`` where ``pipeline`` lists the datanodes in upload order
        (DN1 is the first hop of the chain).
        """
        if path not in self._files:
            raise FileNotFoundInHdfsError(f"no such file: {path!r} (create it before writing)")
        replication = replication if replication is not None else self.replication
        block_id = self._next_block_id
        self._next_block_id += 1
        logical_block.block_id = block_id
        logical_block.path = path
        pipeline = self._cluster.choose_replica_nodes(replication, client_node=client_node)
        self._files[path].append(block_id)
        self._blocks[block_id] = logical_block
        self._dir_block[block_id] = []
        return block_id, pipeline

    def register_replica(
        self, block_id: int, datanode_id: int, replica_info: Optional[Any] = None
    ) -> None:
        """Record that ``datanode_id`` stores a replica of ``block_id``.

        ``replica_info`` is the HAIL extension: a ``HAILBlockReplicaInfo`` describing the sort
        order, index type and sizes of this particular replica.  Stock uploads pass ``None``.
        """
        if block_id not in self._dir_block:
            raise BlockNotFoundError(f"unknown block id {block_id}")
        datanodes = self._dir_block[block_id]
        if datanode_id not in datanodes:
            datanodes.append(datanode_id)
        if replica_info is not None:
            self._dir_rep[(block_id, datanode_id)] = replica_info
            indexed_attribute = getattr(replica_info, "indexed_attribute", None)
            if indexed_attribute is not None:
                # A fresh index on this attribute supersedes any eviction tombstone: the
                # planner should stop reporting the block's index as evicted.
                self._evictions.pop((block_id, indexed_attribute), None)

    def unregister_replica(self, block_id: int, datanode_id: int) -> None:
        """Remove one replica from ``Dir_block``/``Dir_rep`` and forget its index usage.

        Directory half only: :meth:`repro.hdfs.filesystem.Hdfs.remove_replica` pairs it with
        the datanode's delete (an evicted or migrated adaptive replica, or a stale one
        superseded by a rebuild — real HDFS drops those when the revived datanode's block
        report arrives).
        """
        datanodes = self._dir_block.get(block_id)
        if datanodes is not None and datanode_id in datanodes:
            datanodes.remove(datanode_id)
        self._dir_rep.pop((block_id, datanode_id), None)
        self._index_usage.pop((block_id, datanode_id), None)

    # ------------------------------------------------------------------ lookups
    def logical_block(self, block_id: int) -> LogicalBlock:
        """The logical block metadata for ``block_id``."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise BlockNotFoundError(f"unknown block id {block_id}") from None

    def block_datanodes(self, block_id: int, alive_only: bool = True) -> list[int]:
        """Datanodes of ``Dir_block[block_id]``, optionally filtered to alive nodes."""
        try:
            datanodes = self._dir_block[block_id]
        except KeyError:
            raise BlockNotFoundError(f"unknown block id {block_id}") from None
        if not alive_only:
            return list(datanodes)
        return [nid for nid in datanodes if self._cluster.node(nid).is_alive]

    def has_replica(self, block_id: int, datanode_id: int) -> bool:
        """True when ``Dir_block[block_id]`` lists ``datanode_id`` (alive or not)."""
        return datanode_id in self._dir_block.get(block_id, ())

    def block_locations(self, path: str, alive_only: bool = True) -> list[BlockLocation]:
        """``BlockLocation[]`` for every block of ``path`` (what the JobClient fetches)."""
        locations = []
        for block_id in self.file_blocks(path):
            block = self._blocks[block_id]
            hosts = tuple(self.block_datanodes(block_id, alive_only=alive_only))
            locations.append(
                BlockLocation(
                    block_id=block_id,
                    path=path,
                    hosts=hosts,
                    length_bytes=block.text_size_bytes,
                )
            )
        return locations

    # ------------------------------------------------------------------ HAIL extensions (Dir_rep)
    def replica_info(self, block_id: int, datanode_id: int) -> Optional[Any]:
        """The ``HAILBlockReplicaInfo`` of one replica, or ``None`` for unindexed replicas."""
        return self._dir_rep.get((block_id, datanode_id))

    def replica_infos(self, block_id: int, alive_only: bool = True) -> dict[int, Any]:
        """All known replica infos of a block, keyed by datanode id."""
        infos = {}
        for datanode_id in self.block_datanodes(block_id, alive_only=alive_only):
            info = self._dir_rep.get((block_id, datanode_id))
            if info is not None:
                infos[datanode_id] = info
        return infos

    def hosts_with_index(
        self, block_id: int, attribute: str, alive_only: bool = True
    ) -> list[int]:
        """Datanodes whose replica of ``block_id`` has a clustered index on ``attribute``.

        This is the namenode side of the ``getHostsWithIndex`` call HAIL adds to
        ``BlockLocation`` (Section 4.3).
        """
        return self.indexed_among(
            block_id, attribute, self.block_datanodes(block_id, alive_only=alive_only)
        )

    def indexed_among(self, block_id: int, attribute: str, hosts: Sequence[int]) -> list[int]:
        """The datanodes of ``hosts`` whose replica of ``block_id`` is indexed on ``attribute``.

        :meth:`hosts_with_index` over a host list the caller already holds (the planner's
        alive holders of the block), in that list's order.
        """
        indexed = []
        for datanode_id in hosts:
            info = self._dir_rep.get((block_id, datanode_id))
            if info is not None and getattr(info, "indexed_attribute", None) == attribute:
                indexed.append(datanode_id)
        return indexed

    # ------------------------------------------------------------------ index usage & evictions
    def touch_index_usage(self, block_id: int, datanode_id: int) -> None:
        """Record that the planner chose this replica's index for a block plan.

        Called by :class:`~repro.engine.planner.PhysicalPlanner` whenever a plan answers a
        block via the replica's clustered index.  The per-replica use count and last-used tick
        are what the adaptive-index lifecycle manager orders eviction candidates by (LRU).
        """
        self._usage_tick += 1
        entry = self._index_usage.setdefault((block_id, datanode_id), [0, 0])
        entry[0] += 1
        entry[1] = self._usage_tick

    def index_usage(self, block_id: int, datanode_id: int) -> tuple[int, int]:
        """``(use count, last-used tick)`` of one replica's index; ``(0, 0)`` if never used."""
        entry = self._index_usage.get((block_id, datanode_id))
        if entry is None:
            return (0, 0)
        return (entry[0], entry[1])

    def transfer_index_usage(self, block_id: int, from_datanode: int, to_datanode: int) -> None:
        """Move one replica's usage statistics to another datanode (placement migration).

        The placement balancer migrates adaptive replicas between nodes; carrying the LRU
        history along keeps a *hot* migrated replica from looking brand-new cold on its new
        host and being the next thing disk-pressure eviction reclaims (migrate→evict thrash).
        """
        entry = self._index_usage.pop((block_id, from_datanode), None)
        if entry is not None:
            self._index_usage[(block_id, to_datanode)] = entry

    def reset_index_usage(self, block_id: int, datanode_id: int) -> None:
        """Forget one replica's usage statistics (its index was reclaimed).

        ``unregister_replica`` clears the statistics when a replica is deleted outright; the
        downgrade path of eviction keeps the replica registered (as a plain copy) and calls
        this instead, so a later rebuild on the same node starts its LRU life from scratch.
        """
        self._index_usage.pop((block_id, datanode_id), None)

    def adaptive_bytes_by_node(self) -> Dict[int, int]:
        """On-disk bytes of the *adaptive* replicas per datanode, in one ``Dir_rep`` pass.

        This is the per-node metric the disk-pressure eviction policy bounds: the footprint of
        the opportunistic (adaptively built) replicas, measured from ``Dir_rep`` — upload-time
        replicas are primary data and never count against the adaptive budget.  Datanodes
        without adaptive replicas are absent from the mapping.
        """
        totals: Dict[int, int] = {}
        for (_block_id, owner), info in self._dir_rep.items():
            if getattr(info, "is_adaptive", False):
                totals[owner] = totals.get(owner, 0) + info.size_on_disk_bytes
        return totals

    def record_index_eviction(self, block_id: int, attribute: str, datanode_id: int) -> None:
        """Remember that the adaptive index of ``(block, attribute)`` was evicted from a node.

        The tombstone only feeds the planner's fallback-reason wording ("evicted (disk
        pressure on dnN)" rather than "no replica indexed"); it is cleared when a replica
        indexed on ``attribute`` is registered again.
        """
        self._evictions[(block_id, attribute)] = datanode_id

    def index_eviction(self, block_id: int, attribute: str) -> Optional[int]:
        """Datanode an adaptive index of ``(block, attribute)`` was evicted from, or ``None``."""
        return self._evictions.get((block_id, attribute))

    # ------------------------------------------------------------------ persistence support
    # Accessors the persistence layer (src/repro/persist/) uses to capture a block's full
    # directory state and to rebuild the namenode from a journal.  Restore goes through
    # these instead of allocate_block/touch_index_usage because the journaled values — block
    # ids, usage ticks, the allocation counter — must come back exactly, not be re-derived.

    def block_eviction_tombstones(self, block_id: int) -> Dict[str, int]:
        """Eviction tombstones of one block, keyed by the evicted indexed attribute."""
        return {
            attribute: datanode_id
            for (bid, attribute), datanode_id in self._evictions.items()
            if bid == block_id
        }

    @property
    def next_block_id(self) -> int:
        """The allocation counter: the id the next :meth:`allocate_block` will hand out."""
        return self._next_block_id

    def set_next_block_id(self, value: int) -> None:
        """Restore the allocation counter (monotone: never moves backwards)."""
        self._next_block_id = max(self._next_block_id, value)

    @property
    def usage_tick(self) -> int:
        """The logical clock behind the index-usage LRU statistics."""
        return self._usage_tick

    def set_usage_tick(self, tick: int) -> None:
        """Restore the usage clock (monotone: never moves backwards)."""
        self._usage_tick = max(self._usage_tick, tick)

    def adopt_block(self, path: str, logical_block: LogicalBlock, block_id: int) -> None:
        """Insert a journaled block under its *original* id (restore-time allocation).

        The normal :meth:`allocate_block` hands out fresh ids and an upload pipeline;
        restore must instead re-seat each block exactly where the journal says it lived, in
        journal order, and leave the allocation counter strictly past every adopted id so
        post-restore uploads can never collide with recovered blocks.
        """
        if path not in self._files:
            raise FileNotFoundInHdfsError(f"no such file: {path!r} (create it before adopting)")
        if block_id in self._blocks:
            raise BlockNotFoundError(f"block id {block_id} already present; cannot adopt")
        logical_block.block_id = block_id
        logical_block.path = path
        self._files[path].append(block_id)
        self._blocks[block_id] = logical_block
        self._dir_block[block_id] = []
        self.set_next_block_id(block_id + 1)

    def set_index_usage(
        self, block_id: int, datanode_id: int, use_count: int, last_tick: int
    ) -> None:
        """Restore one replica's journaled LRU statistics verbatim."""
        self._index_usage[(block_id, datanode_id)] = [use_count, last_tick]
        self.set_usage_tick(last_tick)

    # ------------------------------------------------------------------ reporting
    def describe(self) -> dict:
        """Namespace and directory sizes (for reports and tests)."""
        return {
            "files": len(self._files),
            "blocks": len(self._blocks),
            "replica_entries": sum(len(v) for v in self._dir_block.values()),
            "dir_rep_entries": len(self._dir_rep),
            "replication": self.replication,
        }
