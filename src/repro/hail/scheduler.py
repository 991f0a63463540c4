"""Index-aware scheduling statistics (Section 4.3).

HAIL changes two decisions that stock Hadoop makes purely on data locality and availability:

- which datanode a map task should be scheduled *close to* (the JobTracker's decision), and
- which replica the record reader should actually *open* (the HDFS client's decision).

Both decisions live in the unified engine (:class:`repro.engine.planner.PhysicalPlanner`), and so
does the registration of the indexed replicas that scans stage as a by-product
(:func:`repro.engine.adaptive.commit_adaptive_builds`).
This module keeps the namenode-level reporting helpers used by experiments and tests:
coverage, replica and adaptive-replica statistics, the index-local task fraction, and
:func:`check_dir_rep_consistency`, which lets tests assert that no failure leaves ``Dir_rep``
pointing at replicas that were never flushed.
"""

from __future__ import annotations

from repro.hail.hail_block import HailBlock
from repro.hdfs.filesystem import Hdfs
from repro.hdfs.namenode import NameNode
from repro.mapreduce.counters import Counters

__all__ = [
    "index_coverage",
    "replica_distribution",
    "adaptive_replica_count",
    "adaptive_replica_bytes",
    "index_local_task_fraction",
    "check_dir_rep_consistency",
]


def index_coverage(namenode: NameNode, path: str, attribute: str) -> float:
    """Fraction of the file's blocks that have at least one alive replica indexed on ``attribute``.

    1.0 right after a HAIL upload that configured an index on ``attribute``; it drops below 1.0
    when datanodes fail (the situation of the fault-tolerance experiment, Figure 8).
    """
    block_ids = namenode.file_blocks(path)
    if not block_ids:
        return 0.0
    covered = sum(
        1 for block_id in block_ids if namenode.hosts_with_index(block_id, attribute, alive_only=True)
    )
    return covered / len(block_ids)


def replica_distribution(namenode: NameNode, path: str) -> dict[str, int]:
    """How many replicas of the file are indexed on each attribute (``None`` = unindexed)."""
    histogram: dict[str, int] = {}
    for block_id in namenode.file_blocks(path):
        for datanode_id in namenode.block_datanodes(block_id, alive_only=False):
            info = namenode.replica_info(block_id, datanode_id)
            key = info.indexed_attribute if info is not None else None
            histogram[str(key)] = histogram.get(str(key), 0) + 1
    return histogram


def adaptive_replica_count(namenode: NameNode, path: str) -> int:
    """Number of ``Dir_rep`` entries of ``path`` whose index was built adaptively (LIAH)."""
    count = 0
    for block_id in namenode.file_blocks(path):
        for datanode_id in namenode.block_datanodes(block_id, alive_only=False):
            info = namenode.replica_info(block_id, datanode_id)
            if info is not None and info.is_adaptive:
                count += 1
    return count


def adaptive_replica_bytes(namenode: NameNode, path: str) -> int:
    """Total on-disk bytes (data + checksum files) of ``path``'s adaptive replicas.

    This is the quantity the disk-pressure eviction policy bounds: with eviction enabled the
    sum stays below whatever the per-node capacity ceilings leave for adaptive replicas, while
    upload-time replicas are never counted (they are never evicted).
    """
    total = 0
    for block_id in namenode.file_blocks(path):
        for datanode_id in namenode.block_datanodes(block_id, alive_only=False):
            info = namenode.replica_info(block_id, datanode_id)
            if info is not None and info.is_adaptive:
                total += info.size_on_disk_bytes
    return total


def index_local_task_fraction(counters) -> float:
    """Fraction of scheduled map tasks that ran on a node holding a covering index.

    Computed from the ``SCHED_*`` scheduling-tier counters — ``counters`` may be a
    :class:`~repro.mapreduce.counters.Counters` bag or a plain counter mapping (the session
    statistics snapshot).  Only meaningful for jobs (or session totals) run with
    ``index_aware_scheduling`` on; 0.0 when no classified launches were recorded.  This is
    the steady-state metric the placement experiment tracks through failures and eviction
    storms.
    """
    values = counters.as_dict() if isinstance(counters, Counters) else counters
    index_local = values.get(Counters.SCHED_INDEX_LOCAL, 0.0)
    total = (
        index_local
        + values.get(Counters.SCHED_PLAIN_LOCAL, 0.0)
        + values.get(Counters.SCHED_REMOTE, 0.0)
    )
    if total <= 0:
        return 0.0
    return index_local / total


#: ``Dir_rep`` fields a HAIL payload determines by itself (see :meth:`HailBlock.replica_info`).
_PAYLOAD_DERIVED_FIELDS = (
    "sort_attribute", "index_size_bytes", "block_size_bytes", "num_records", "pax_layout",
    "zone_ranges",
)


def check_dir_rep_consistency(hdfs: Hdfs, path: str) -> list[str]:
    """Invariants tying ``Dir_rep`` to the physically stored replicas; returns violations.

    Used by the failure-injection tests: after any sequence of adaptive builds, node deaths and
    reschedules there must be (1) no ``Dir_rep`` entry without a matching stored replica, (2) no
    entry whose indexed attribute, sort attribute, sizes, record count, layout or registered
    zone synopsis disagrees with what the stored payload says about itself
    (:meth:`HailBlock.replica_info`), and (3) at most one adaptive index per
    ``(block, attribute)`` — a rescheduled task must not have built the same block index twice.
    """
    violations: list[str] = []
    namenode = hdfs.namenode
    for block_id in namenode.file_blocks(path):
        adaptive_attributes: dict[str, int] = {}
        for datanode_id in namenode.block_datanodes(block_id, alive_only=False):
            info = namenode.replica_info(block_id, datanode_id)
            if info is None:
                continue
            datanode = hdfs.datanode(datanode_id)
            if not datanode.has_replica(block_id):
                violations.append(
                    f"block {block_id}: Dir_rep entry for dn{datanode_id} "
                    "has no stored replica (half-registered)"
                )
                continue
            replica = datanode.replica(block_id)
            if info.indexed_attribute != replica.indexed_attribute:
                violations.append(
                    f"block {block_id}: Dir_rep says index on "
                    f"{info.indexed_attribute!r} but replica on dn{datanode_id} carries "
                    f"{replica.indexed_attribute!r}"
                )
            if isinstance(replica.payload, HailBlock):
                described = replica.payload.replica_info(datanode_id)
                for name in _PAYLOAD_DERIVED_FIELDS:
                    if name == "zone_ranges" and info.zone_ranges is None:
                        continue  # no synopsis registered (Hadoop++): nothing to contradict
                    if getattr(info, name) != getattr(described, name):
                        violations.append(
                            f"block {block_id}: Dir_rep {name} on dn{datanode_id} is "
                            f"{getattr(info, name)!r} but the stored payload says "
                            f"{getattr(described, name)!r}"
                        )
            if info.is_adaptive:
                attribute = str(info.indexed_attribute)
                adaptive_attributes[attribute] = adaptive_attributes.get(attribute, 0) + 1
        for attribute, count in adaptive_attributes.items():
            if count > 1:
                violations.append(
                    f"block {block_id}: {count} adaptive indexes on {attribute} "
                    "(double build)"
                )
    return violations
