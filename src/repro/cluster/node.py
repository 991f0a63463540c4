"""Simulated cluster nodes.

A :class:`Node` is the unit of failure and of locality.  Each node typically hosts one HDFS
datanode and one MapReduce TaskTracker (exactly as in the paper's clusters, where TaskTrackers
run co-located with datanodes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.hardware import HardwareProfile


class NodeState(enum.Enum):
    """Lifecycle state of a node."""

    ALIVE = "alive"
    DEAD = "dead"


@dataclass
class Node:
    """One machine of the simulated cluster.

    Attributes
    ----------
    node_id:
        Unique integer identifier within the cluster.
    hardware:
        The node's :class:`~repro.cluster.hardware.HardwareProfile`.
    rack:
        Rack identifier used for locality decisions (same-node < same-rack < off-rack).
    state:
        Whether the node is alive; the failover experiment kills nodes mid-job.
    """

    node_id: int
    hardware: HardwareProfile
    rack: int = 0
    state: NodeState = NodeState.ALIVE
    disk_used_bytes: int = 0

    @property
    def is_alive(self) -> bool:
        """True while the node has not been killed."""
        return self.state == NodeState.ALIVE

    def kill(self) -> None:
        """Mark the node as failed (all Java processes killed, in the paper's phrasing)."""
        self.state = NodeState.DEAD

    def revive(self) -> None:
        """Bring the node back (used to reset clusters between experiments)."""
        self.state = NodeState.ALIVE

    def charge_disk(self, num_bytes: int) -> None:
        """Account ``num_bytes`` of additional disk usage on this node."""
        if num_bytes < 0:
            raise ValueError("cannot charge a negative number of bytes")
        self.disk_used_bytes += num_bytes

    def release_disk(self, num_bytes: int) -> None:
        """Release previously charged disk usage (block deletion)."""
        self.disk_used_bytes = max(0, self.disk_used_bytes - num_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node(id={self.node_id}, hw={self.hardware.name}, rack={self.rack}, "
            f"state={self.state.value})"
        )
