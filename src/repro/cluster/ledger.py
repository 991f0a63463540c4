"""Per-node resource ledgers.

Cluster-wide operations (uploading a dataset, running a MapReduce job's I/O) are charged by
recording, for every node, how many bytes it read from disk, wrote to disk, sent and received
over the network, and how many CPU-seconds it spent.  The duration of the operation is then the
*makespan*: the slowest node bounds the whole phase, and on each node pipelined I/O, network and
CPU overlap, so the node's time is the maximum of its three resource times (plus any
non-overlappable fixed costs).

This aggregate treatment is what makes the simulation capture cluster-level disk contention:
when ten clients upload simultaneously with replication three, every datanode's disks absorb
three times the per-client volume, which is exactly why stock HDFS uploads are I/O-bound and why
HAIL can hide its sorting and indexing work behind that I/O (Section 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.cluster.costmodel import CostModel
from repro.cluster.node import Node
from repro.cluster.topology import Cluster

_MB = 1024.0 * 1024.0


@dataclass
class NodeUsage:
    """Resource consumption of one node during an operation (functional byte counts)."""

    disk_read_bytes: float = 0.0
    disk_write_bytes: float = 0.0
    net_in_bytes: float = 0.0
    net_out_bytes: float = 0.0
    cpu_seconds: float = 0.0
    fixed_seconds: float = 0.0

    def merge(self, other: "NodeUsage") -> None:
        """Accumulate another usage record into this one."""
        self.disk_read_bytes += other.disk_read_bytes
        self.disk_write_bytes += other.disk_write_bytes
        self.net_in_bytes += other.net_in_bytes
        self.net_out_bytes += other.net_out_bytes
        self.cpu_seconds += other.cpu_seconds
        self.fixed_seconds += other.fixed_seconds


class TransferLedger:
    """Accumulates per-node resource usage and converts it into a simulated duration."""

    def __init__(self, cluster: Cluster, cost: CostModel) -> None:
        self._cluster = cluster
        self._cost = cost
        self._usage: Dict[int, NodeUsage] = {}

    # ------------------------------------------------------------------ recording
    def usage(self, node_id: int) -> NodeUsage:
        """The (mutable) usage record of a node, created on first access."""
        record = self._usage.get(node_id)
        if record is None:
            record = NodeUsage()
            self._usage[node_id] = record
        return record

    def record_disk_read(self, node_id: int, num_bytes: float) -> None:
        """Charge a local disk read of ``num_bytes`` (functional bytes, scaled later)."""
        self.usage(node_id).disk_read_bytes += max(num_bytes, 0.0)

    def record_disk_write(self, node_id: int, num_bytes: float) -> None:
        """Charge a local disk write of ``num_bytes``."""
        self.usage(node_id).disk_write_bytes += max(num_bytes, 0.0)

    def record_transfer(self, src_node: int, dst_node: int, num_bytes: float) -> None:
        """Charge a network transfer; same-node transfers are free (short-circuit)."""
        if src_node == dst_node or num_bytes <= 0:
            return
        self.usage(src_node).net_out_bytes += num_bytes
        self.usage(dst_node).net_in_bytes += num_bytes

    def record_cpu(self, node_id: int, seconds: float) -> None:
        """Charge CPU-seconds (already computed by :class:`~repro.cluster.cpu.CpuModel`)."""
        self.usage(node_id).cpu_seconds += max(seconds, 0.0)

    def record_fixed(self, node_id: int, seconds: float) -> None:
        """Charge non-overlappable fixed time (per-block setup, ACK round trips, seeks)."""
        self.usage(node_id).fixed_seconds += max(seconds, 0.0)

    # ------------------------------------------------------------------ evaluation
    def node_time(self, node_id: int, apply_variance: bool = True) -> float:
        """Simulated seconds the node is busy, assuming disk/network/CPU overlap."""
        record = self._usage.get(node_id)
        if record is None:
            return 0.0
        node = self._cluster.node(node_id)
        disk_seconds = self._disk_seconds(node, record)
        net_seconds = self._network_seconds(node, record)
        io_seconds = max(disk_seconds, net_seconds)
        if apply_variance:
            io_seconds = self._cost.vary_io(node, io_seconds)
        return max(io_seconds, record.cpu_seconds) + record.fixed_seconds

    def makespan(self, apply_variance: bool = True) -> float:
        """Duration of the whole operation: the slowest node's busy time."""
        if not self._usage:
            return 0.0
        return max(self.node_time(node_id, apply_variance) for node_id in self._usage)

    # ------------------------------------------------------------------ internals
    def _disk_seconds(self, node: Node, record: NodeUsage) -> float:
        read_bytes = self._cost.scale_bytes(record.disk_read_bytes)
        write_bytes = self._cost.scale_bytes(record.disk_write_bytes)
        return self._cost.disk(node).mixed_read_write(read_bytes, write_bytes)

    def _network_seconds(self, node: Node, record: NodeUsage) -> float:
        # Full-duplex NICs: inbound and outbound streams proceed concurrently.
        volume = max(record.net_in_bytes, record.net_out_bytes)
        volume = self._cost.scale_bytes(volume)
        if volume <= 0:
            return 0.0
        return volume / (node.hardware.network_mb_s * _MB)
