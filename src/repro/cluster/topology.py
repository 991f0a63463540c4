"""Cluster topology: the collection of nodes plus rack layout and locality helpers."""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from repro.cluster.hardware import HardwareProfile
from repro.cluster.node import Node


class Cluster:
    """A set of simulated nodes with rack awareness.

    The namenode and jobtracker are assumed to run on dedicated machines outside this set (the
    paper allocates extra nodes for them on EC2), so every node in the cluster is a worker that
    hosts a datanode and a TaskTracker.
    """

    def __init__(self, nodes: Sequence[Node], nodes_per_rack: int = 20, seed: int = 0) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self._nodes: list[Node] = list(nodes)
        self._nodes_by_id = {node.node_id: node for node in self._nodes}
        if len(self._nodes_by_id) != len(self._nodes):
            raise ValueError("duplicate node ids in cluster")
        self.nodes_per_rack = nodes_per_rack
        self._rng = random.Random(seed)
        for node in self._nodes:
            node.rack = node.node_id // nodes_per_rack

    # ------------------------------------------------------------------ construction
    @classmethod
    def homogeneous(
        cls,
        num_nodes: int,
        hardware: HardwareProfile | None = None,
        nodes_per_rack: int = 20,
        seed: int = 0,
    ) -> "Cluster":
        """Build a cluster of ``num_nodes`` identical nodes (the common case in the paper)."""
        profile = hardware if hardware is not None else HardwareProfile.physical()
        nodes = [Node(node_id=i, hardware=profile) for i in range(num_nodes)]
        return cls(nodes, nodes_per_rack=nodes_per_rack, seed=seed)

    # ------------------------------------------------------------------ basic accessors
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    @property
    def nodes(self) -> list[Node]:
        """All nodes, alive or dead."""
        return list(self._nodes)

    @property
    def alive_nodes(self) -> list[Node]:
        """Only the nodes that have not been killed."""
        return [node for node in self._nodes if node.is_alive]

    def node(self, node_id: int) -> Node:
        """Return the node with ``node_id``.

        Raises
        ------
        KeyError
            If no node with that id exists.
        """
        return self._nodes_by_id[node_id]

    def has_node(self, node_id: int) -> bool:
        """True if ``node_id`` belongs to this cluster."""
        return node_id in self._nodes_by_id

    # ------------------------------------------------------------------ locality
    def same_rack(self, node_a: int, node_b: int) -> bool:
        """True when both nodes sit in the same rack."""
        return self.node(node_a).rack == self.node(node_b).rack

    def locality(self, node_a: int, node_b: int) -> str:
        """Classify the distance between two nodes: ``node`` / ``rack`` / ``off-rack``."""
        if node_a == node_b:
            return "node"
        if self.same_rack(node_a, node_b):
            return "rack"
        return "off-rack"

    # ------------------------------------------------------------------ replica placement
    def choose_replica_nodes(
        self, num_replicas: int, client_node: int | None = None
    ) -> list[int]:
        """Pick datanodes for the replicas of one block, HDFS-style.

        The first replica goes to the client's own node when the client runs on a datanode
        (which is the case when each node uploads its local data, as in the paper's upload
        experiments); the remaining replicas go to distinct other alive nodes, preferring a
        different rack for the second replica.
        """
        alive = self.alive_nodes
        if num_replicas > len(alive):
            raise ValueError(
                f"cannot place {num_replicas} replicas on {len(alive)} alive nodes"
            )
        chosen: list[int] = []
        if client_node is not None and self.has_node(client_node) and self.node(client_node).is_alive:
            chosen.append(client_node)
        remaining = [node.node_id for node in alive if node.node_id not in chosen]
        self._rng.shuffle(remaining)
        if chosen and len(chosen) < num_replicas:
            # Prefer an off-rack node for the second replica when one exists.
            off_rack = [nid for nid in remaining if not self.same_rack(nid, chosen[0])]
            if off_rack:
                second = off_rack[0]
                chosen.append(second)
                remaining.remove(second)
        while len(chosen) < num_replicas:
            chosen.append(remaining.pop())
        return chosen[:num_replicas]

    # ------------------------------------------------------------------ failure handling
    def kill_node(self, node_id: int) -> Node:
        """Kill one node and return it."""
        node = self.node(node_id)
        node.kill()
        return node

    def revive_all(self) -> None:
        """Revive every node (reset between experiments)."""
        for node in self._nodes:
            node.revive()

    # ------------------------------------------------------------------ reporting
    def describe(self) -> dict:
        """Summarise the cluster (used by experiment reports)."""
        profiles = sorted({node.hardware.name for node in self._nodes})
        return {
            "nodes": len(self._nodes),
            "alive": len(self.alive_nodes),
            "racks": len({node.rack for node in self._nodes}),
            "hardware": profiles,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.describe()
        return f"Cluster(nodes={info['nodes']}, hardware={info['hardware']})"
