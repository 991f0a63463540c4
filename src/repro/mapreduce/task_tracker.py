"""TaskTrackers: per-node execution slots for map tasks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import Node


@dataclass
class TaskTracker:
    """The worker daemon of one node, offering a fixed number of map slots."""

    node: Node
    map_slots: int = 2

    @property
    def node_id(self) -> int:
        """Id of the host node."""
        return self.node.node_id

    @property
    def is_alive(self) -> bool:
        """Trackers die with their node."""
        return self.node.is_alive

    def slot_ids(self) -> range:
        """Indices of this tracker's map slots (the JobTracker builds one slot per index)."""
        return range(self.map_slots)
