"""HDFS datanodes: per-node replica storage."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.cluster.node import Node
from repro.hdfs.block import Replica
from repro.hdfs.checksum import checksum_file_size
from repro.hdfs.errors import ReplicaNotFoundError


class DataNode:
    """One datanode: stores physical replicas and their checksum files on its node's disks."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self._replicas: Dict[int, Replica] = {}
        self._used_bytes = 0

    @property
    def node_id(self) -> int:
        """Id of the cluster node hosting this datanode."""
        return self.node.node_id

    @property
    def is_alive(self) -> bool:
        """Datanode availability follows its host node."""
        return self.node.is_alive

    # ------------------------------------------------------------------ storage
    def store_replica(self, replica: Replica) -> None:
        """Flush a replica's data file and checksum file to local disk.

        A replica of the same block already stored here is overwritten: its bytes and disk
        charge are released first.
        """
        if replica.datanode_id != self.node_id:
            raise ValueError(
                f"replica for datanode {replica.datanode_id} stored on datanode {self.node_id}"
            )
        self.delete_replica(replica.block_id)
        self._replicas[replica.block_id] = replica
        data_bytes = replica.size_bytes
        self._used_bytes += data_bytes
        self.node.charge_disk(data_bytes + checksum_file_size(data_bytes))

    def has_replica(self, block_id: int) -> bool:
        """True when this datanode holds a replica of ``block_id``."""
        return block_id in self._replicas

    def replica(self, block_id: int) -> Replica:
        """The replica of ``block_id`` stored here.

        Raises
        ------
        ReplicaNotFoundError
            If the datanode does not hold the block.
        """
        try:
            return self._replicas[block_id]
        except KeyError:
            raise ReplicaNotFoundError(
                f"datanode {self.node_id} holds no replica of block {block_id}"
            ) from None

    def delete_replica(self, block_id: int) -> None:
        """Drop a replica (block deletion / rebalancing)."""
        replica = self._replicas.pop(block_id, None)
        if replica is not None:
            data_bytes = replica.size_bytes
            self._used_bytes -= data_bytes
            self.node.release_disk(data_bytes + checksum_file_size(data_bytes))

    def block_ids(self) -> list[int]:
        """Ids of all blocks with a replica on this datanode."""
        return sorted(self._replicas)

    @property
    def used_bytes(self) -> int:
        """Total bytes of replica data files stored here (excluding checksum files).

        A running total kept by :meth:`store_replica` / :meth:`delete_replica` — payloads are
        immutable once stored — so reading it does not grow with the number of replicas.
        """
        return self._used_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataNode(node={self.node_id}, replicas={len(self._replicas)})"
