"""The HDFS facade: one namenode plus one datanode per cluster node.

`Hdfs` wires the namenode and datanodes to a :class:`~repro.cluster.topology.Cluster` and gives
uploaders and record readers a single object to talk to.  It owns the one replica-mutation
edge — :meth:`Hdfs.install_replica`, :meth:`Hdfs.remove_replica` and the journaled
:meth:`Hdfs.mutating` scope — so a replica's bytes, its ``Dir_block``/``Dir_rep`` entries and
the journal change together.  Otherwise it is deliberately thin: the interesting behaviour
lives in the upload pipelines (:mod:`repro.hdfs.pipeline`, :mod:`repro.hail.upload`) and in
the MapReduce substrate.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.topology import Cluster
from repro.hdfs.block import BlockPayload, Replica
from repro.hdfs.datanode import DataNode
from repro.hdfs.errors import ReplicaNotFoundError
from repro.hdfs.namenode import NameNode
from repro.query.schema import Schema


@dataclass
class DataFile:
    """A client-side file to be uploaded: typed records plus their schema.

    ``raw_lines`` optionally carries unparsed text rows (including rows that will turn out to be
    bad records); when absent, the text representation is derived from ``records``.
    """

    path: str
    schema: Schema
    records: list[tuple]
    raw_lines: Optional[list[str]] = None

    @property
    def num_records(self) -> int:
        """Number of typed records in the file."""
        return len(self.records)

    def partition_records(self, rows_per_block: int) -> list[list[tuple]]:
        """Split the typed records into block-sized groups, never splitting a row."""
        if rows_per_block <= 0:
            raise ValueError("rows_per_block must be positive")
        return [
            self.records[i : i + rows_per_block]
            for i in range(0, len(self.records), rows_per_block)
        ] or [[]]

    def partition_lines(self, rows_per_block: int) -> list[list[str]]:
        """Split the raw text lines into block-sized groups (for raw uploads with bad records)."""
        if rows_per_block <= 0:
            raise ValueError("rows_per_block must be positive")
        if self.raw_lines is None:
            raise ValueError("this DataFile carries no raw lines")
        return [
            self.raw_lines[i : i + rows_per_block]
            for i in range(0, len(self.raw_lines), rows_per_block)
        ] or [[]]


class Hdfs:
    """A simulated HDFS deployment: cluster + namenode + datanodes."""

    def __init__(self, cluster: Cluster, cost: CostModel, replication: int = 3) -> None:
        self.cluster = cluster
        self.cost = cost
        self.namenode = NameNode(cluster, replication=replication)
        self.datanodes: Dict[int, DataNode] = {
            node.node_id: DataNode(node) for node in cluster.nodes
        }
        #: The journal (:class:`repro.persist.SqliteBackend`), or ``None`` to keep every
        #: journal write out of the path.  Attached by the owning system when its config
        #: sets ``persistence_dir``.  Replica mutations reach it only through :meth:`mutating`.
        self.persist = None

    # ------------------------------------------------------------------ datanode access
    def datanode(self, node_id: int) -> DataNode:
        """The datanode running on ``node_id``."""
        return self.datanodes[node_id]

    # ------------------------------------------------------------------ the replica writer
    @contextmanager
    def mutating(self, block_id: int, site: str) -> Iterator[None]:
        """Journal one replica mutation of ``block_id`` under the crash-site name ``site``.

        The body's installs and removals become durable together: one ``sync_block`` on normal
        exit, none if the body raises (a crash mid-mutation loses it wholesale, never
        partially) and none without a journal attached.
        """
        yield
        if self.persist is not None:
            self.persist.sync_block(self, block_id, site=site)

    def install_replica(
        self,
        block_id: int,
        datanode_id: int,
        payload: BlockPayload,
        info: Optional[Any] = None,
        touch: bool = False,
    ) -> None:
        """Store ``payload`` as ``datanode_id``'s replica of ``block_id`` and register it.

        The single write path behind upload, index rewrites, adaptive commits, eviction
        downgrades, balancer rebuilds/migrations and journal restore: a replica of the block
        the node already holds is dropped first (``store_replica`` releases its disk charge),
        then the stored replica, ``Dir_block`` and the ``Dir_rep`` entry ``info`` change
        together.  ``touch`` records a first index use.  A journaled caller installs inside a
        :meth:`mutating` scope.
        """
        self.datanode(datanode_id).store_replica(
            Replica(
                block_id=block_id,
                datanode_id=datanode_id,
                payload=payload,
                sort_attribute=getattr(info, "sort_attribute", None),
                indexed_attribute=getattr(info, "indexed_attribute", None),
            )
        )
        self.namenode.register_replica(block_id, datanode_id, replica_info=info)
        if touch:
            self.namenode.touch_index_usage(block_id, datanode_id)

    def remove_replica(self, block_id: int, datanode_id: int) -> None:
        """Drop ``datanode_id``'s replica of ``block_id``: the single removal path.

        ``Dir_block``, the ``Dir_rep`` entry, its index-usage statistics and the stored replica
        (with its disk charge) go together; a replica the node does not hold is a no-op.
        """
        self.namenode.unregister_replica(block_id, datanode_id)
        self.datanode(datanode_id).delete_replica(block_id)

    # ------------------------------------------------------------------ replica access
    def read_replica(self, block_id: int, datanode_id: int) -> Replica:
        """Fetch the replica of ``block_id`` stored on ``datanode_id``."""
        return self.datanode(datanode_id).replica(block_id)

    def any_replica(self, block_id: int) -> Replica:
        """Fetch some alive replica of ``block_id`` (the namenode's first alive holder's)."""
        hosts = self.namenode.block_datanodes(block_id, alive_only=True)
        if not hosts:
            raise ReplicaNotFoundError(f"no alive replica of block {block_id}")
        return self.read_replica(block_id, hosts[0])

    # ------------------------------------------------------------------ file level helpers
    def total_stored_bytes(self) -> int:
        """Total replica bytes stored across all datanodes (the paper's disk-space argument)."""
        return sum(dn.used_bytes for dn in self.datanodes.values())

    def describe(self) -> dict:
        """Summary of the deployment for reports."""
        info = self.namenode.describe()
        info["stored_bytes"] = self.total_stored_bytes()
        info["datanodes"] = len(self.datanodes)
        return info
