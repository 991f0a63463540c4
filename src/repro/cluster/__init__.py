"""Cluster substrate: hardware profiles, nodes, topology, cost model, simulated time.

The paper evaluates HAIL on six clusters (one physical 10-node cluster, EC2 clusters of
10/50/100 nodes with three different node types).  This package replaces those clusters with a
laptop-scale simulation: every node carries a :class:`HardwareProfile` and all durations are
*simulated seconds* produced by :class:`CostModel` from byte counts and hardware parameters.
"""

from repro.cluster.hardware import HardwareProfile
from repro.cluster.node import Node, NodeState
from repro.cluster.topology import Cluster
from repro.cluster.disk import DiskModel, DiskPressurePolicy
from repro.cluster.network import NetworkModel
from repro.cluster.cpu import CpuModel
from repro.cluster.costmodel import CostModel, CostParameters
from repro.cluster.ledger import TransferLedger, NodeUsage
from repro.cluster.failure import FailureInjector, FailureEvent

__all__ = [
    "HardwareProfile",
    "Node",
    "NodeState",
    "Cluster",
    "DiskModel",
    "DiskPressurePolicy",
    "NetworkModel",
    "CpuModel",
    "CostModel",
    "CostParameters",
    "TransferLedger",
    "NodeUsage",
    "FailureInjector",
    "FailureEvent",
]
