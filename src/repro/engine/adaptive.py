"""Adaptive (lazy) indexing: full scans pay forward.

HAIL's follow-up work (LIAH, "Towards Zero-Overhead Static and Adaptive Indexing in Hadoop")
extends the upload-time indexes with indexes built *incrementally as a side effect of query
execution*: whenever a map task has to fall back to scanning a block, it already holds the
block's data in memory — sorting it and writing an indexed replica costs only the incremental
sort/index/write work, and every query after that answers the block with an index scan.  Under
any stable workload the system therefore converges to the fully indexed state without a single
dedicated indexing job.

This module carries the pieces of that feedback loop that are *not* tied to the HAIL package:

- :class:`AdaptiveJobContext` — the per-job policy (offer rate, build budget) the planner
  consults before it upgrades a scan to :attr:`~repro.engine.access_path.AccessPath.ADAPTIVE_INDEX_BUILD`;
- :class:`PendingIndexBuild` — an index build *staged* by the executor.  Builds are never
  applied to HDFS while the map phase runs: a speculative or soon-to-be-killed attempt must not
  leave half-registered state behind, so the replica and its ``Dir_rep`` entry travel with the
  task result instead;
- :func:`commit_adaptive_builds` — the failure-safe registration step.  HAIL's input format
  calls it once per measured job (``HailInputFormat.finish_run``) with the *surviving*
  attempts only; builds of lost attempts simply never reach
  the namenode, duplicate builds of rescheduled/speculative attempts are deduplicated, and the
  replica store + ``Dir_rep`` registration happen together so the directory can never point at
  a replica that was not flushed.  Placement never evicts an existing index: when the executing
  node's replica slot is occupied by a replica indexed on another attribute, the adaptive
  replica is registered on a different host (the shipping is metadata-level — its transfer cost
  is not modelled, only the build/flush cost the executor already charged).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:  # only for annotations: keep this module import-light
    from repro.hdfs.filesystem import Hdfs

def offer_draw(salt: int, block_id: int, attribute: str) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one ``(job, block, attribute)`` offer.

    ``random.random()`` would make repeated experiments non-reproducible and — worse — make the
    failure runner's baseline probe diverge from the measured run.  A CRC over the identifying
    triple gives a stable pseudo-uniform value instead; the per-job ``salt`` makes sure a block
    that was not offered in one query can still be offered by a later one (otherwise low offer
    rates could never converge to full coverage).
    """
    token = f"{salt}:{block_id}:{attribute}".encode("utf-8")
    return (zlib.crc32(token) & 0xFFFFFFFF) / 2.0**32


@dataclass
class AdaptiveJobContext:
    """Per-job adaptive-indexing policy: offer rate plus an indexing budget.

    The HAIL system builds one context per job, with a fresh ``salt``, and hands it to the
    job's ``HailInputFormat``; the format gives it to every record reader, which hands it to
    the planner, which asks :meth:`offers` before upgrading a scan to an
    :attr:`ADAPTIVE_INDEX_BUILD`.  Because the simulated map phase may run twice for one job
    (the failure runner probes an undisturbed baseline first), the format calls
    :meth:`begin_run` at the start of every run — both runs then make identical offers.
    """

    offer_rate: float = 1.0
    budget: Optional[int] = None
    salt: int = 0
    builds_offered: int = 0
    #: Measure counterfactual scan savings for adaptive-index scans (the lifecycle tuner's
    #: benefit ledger).  Off unless the deployment auto-tunes: the measurement costs a second
    #: cost-model evaluation per adaptive-index scan, wasted when nothing consumes it.
    measure_savings: bool = False
    #: Record per-replica index uses in the namenode (the LRU statistics eviction orders by).
    #: The input format flips this off for the failure runner's baseline probe, whose side
    #: effects are discarded — otherwise every use would be double-counted by the probe+measured
    #: pair.
    record_usage: bool = True
    #: Functionally compute chunk checksums for staged replicas (mirrors the upload pipeline's
    #: ``HailConfig.verify_checksums``; the checksum *cost* is charged either way).
    verify_checksums: bool = False
    #: Memoized per-run decisions, keyed by ``(block_id, attribute)``: a rescheduled or
    #: speculative attempt that re-plans a block gets the original answer back instead of
    #: charging the budget a second time.
    decisions: dict = field(default_factory=dict)
    #: Replicas whose index use was already recorded this run, keyed by
    #: ``(block_id, datanode_id)``: rescheduled/speculative attempts re-plan blocks, and a
    #: second ``touch_index_usage`` per run would skew the LRU eviction statistics the same
    #: way a double-charged budget would skew the offers.
    usage_touches: set = field(default_factory=set)

    @classmethod
    def from_config(cls, config: Any, salt: int = 0) -> "AdaptiveJobContext":
        """Context snapshotting the adaptivity knobs of a ``HailConfig``."""
        return cls(
            offer_rate=config.adaptive_offer_rate,
            salt=salt,
            verify_checksums=config.verify_checksums,
        )

    def begin_run(self) -> None:
        """Reset the per-run budget and decisions (the input format calls this at job start)."""
        self.builds_offered = 0
        self.decisions.clear()
        self.usage_touches.clear()

    def refund(self, block_id: int, attribute: str) -> None:
        """Return one charged offer (the executor cancelled the build, e.g. stale Dir_rep).

        The decision is memoized as "no" so a rescheduled attempt does not re-charge the slot
        for a block whose build was already found unnecessary.
        """
        if self.decisions.get((block_id, attribute)):
            self.decisions[(block_id, attribute)] = False
            self.builds_offered = max(0, self.builds_offered - 1)

    def offers(self, block_id: int, attribute: str) -> bool:
        """Deterministically decide whether this block's scan should build an index.

        Charges the job budget when it says yes, so callers must only ask for blocks they are
        actually about to execute (the planner asks from the record reader, never during the
        split-phase planning pass).  Decisions are memoized per run: a rescheduled attempt
        re-planning the same block neither double-charges the budget nor gets a different
        answer than the attempt it replaces.
        """
        key = (block_id, attribute)
        if key in self.decisions:
            return self.decisions[key]
        decision = True
        if self.budget is not None and self.builds_offered >= self.budget:
            decision = False
        elif offer_draw(self.salt, block_id, attribute) >= self.offer_rate:
            decision = False
        if decision:
            self.builds_offered += 1
        self.decisions[key] = decision
        return decision


@dataclass(frozen=True)
class PendingIndexBuild:
    """One staged adaptive index build: an indexed replica waiting for failure-safe commit.

    ``replica`` (a :class:`~repro.hdfs.block.Replica` whose payload is the sorted + indexed
    ``HailBlock``) and ``info`` (its ``HAILBlockReplicaInfo`` with ``origin="adaptive"``) are
    fully built by the executor; committing is pure metadata work.
    """

    block_id: int
    datanode_id: int
    attribute: str
    replica: Any
    info: Any
    build_seconds: float
    bytes_written: float
    #: Bytes of the columns the build fetched beyond what its scan already read.
    bytes_read: float = 0.0


@dataclass
class AdaptiveCommitReport:
    """What :func:`commit_adaptive_builds` did with the staged builds of one job."""

    committed: list[PendingIndexBuild] = field(default_factory=list)
    skipped_duplicate: int = 0
    skipped_dead_node: int = 0
    skipped_already_indexed: int = 0
    skipped_no_placement: int = 0


def commit_adaptive_builds(hdfs: "Hdfs", attempts: Iterable[Any]) -> AdaptiveCommitReport:
    """Register the adaptive indexes built by the *surviving* map-task attempts of one job.

    Failure safety comes from three properties:

    - builds of attempts lost to a node failure never appear in ``attempts`` (the scheduler
      discards them before re-executing the task), so a dying datanode cannot leave a
      half-registered index behind;
    - a build whose target datanode is dead by commit time is dropped — ``Dir_rep`` never
      references a replica on a node that cannot serve it;
    - the replica store and the ``Dir_rep`` registration happen back-to-back per build, and
      duplicate builds of the same ``(block, attribute)`` (speculative or rescheduled attempts
      that scanned the same block twice) are committed exactly once.
    """
    report = AdaptiveCommitReport()
    committed_keys: set[tuple[int, str]] = set()
    namenode = hdfs.namenode
    for attempt in attempts:
        for build in attempt.result.adaptive_builds:
            key = (build.block_id, build.attribute)
            if key in committed_keys:
                report.skipped_duplicate += 1
                continue
            if not hdfs.cluster.node(build.datanode_id).is_alive:
                report.skipped_dead_node += 1
                continue
            if namenode.hosts_with_index(build.block_id, build.attribute, alive_only=True):
                # An earlier job (or an earlier block of this commit pass) already registered
                # an alive replica indexed on this attribute; don't build it twice.
                report.skipped_already_indexed += 1
                committed_keys.add(key)
                continue
            target = _placement(hdfs, build)
            if target is None:
                # No placement without evicting an index: keep any stale dead replica of this
                # (block, attribute) — the node's revival restores it (Figure 8 semantics).
                report.skipped_no_placement += 1
                continue
            # One journal sync per build: a crash between builds loses later builds wholesale
            # but never leaves this one half-registered.
            with hdfs.mutating(build.block_id, "mid_adaptive_commit"):
                # This build replaces an adaptive index lost to a node failure (that is why the
                # alive check above came up empty): drop the stale entry so the node's revival
                # cannot resurrect a duplicate (block, attribute) index.  Only now that a
                # target exists — dropping first could destroy the index's last copy.
                _drop_stale_adaptive_replicas(hdfs, build.block_id, build.attribute)
                # A target that already holds the block holds an *unindexed* replica
                # (placement guarantees it), which the sorted + indexed replica replaces — same
                # logical content.  Remember the displacement so a later disk-pressure eviction
                # downgrades this replica back to a plain one instead of deleting the block's
                # copy outright.
                displaced = hdfs.datanode(target).has_replica(build.block_id)
                # Creation counts as a use (``touch``): untouched, a just-built index would be
                # the *coldest* LRU entry and the first thing eviction throws away, before ever
                # paying off.
                hdfs.install_replica(
                    build.block_id,
                    target,
                    build.replica.payload,
                    replace(build.info, datanode_id=target, displaced_plain_replica=displaced),
                    checksums=build.replica.checksums,
                    touch=True,
                )
            committed_keys.add(key)
            report.committed.append(build)
    return report


def _drop_stale_adaptive_replicas(hdfs: "Hdfs", block_id: int, attribute: str) -> None:
    """Garbage-collect *dead* adaptive replicas of ``(block, attribute)`` before a rebuild.

    Only adaptive entries are dropped: an upload-time indexed replica on a dead node comes back
    with the node's revival (the Figure 8 failover semantics), whereas a superseded adaptive
    replica would resurrect as a duplicate of the rebuild committed below.
    """
    namenode = hdfs.namenode
    for datanode_id in list(
        namenode.hosts_with_index(block_id, attribute, alive_only=False)
    ):
        if hdfs.cluster.node(datanode_id).is_alive:
            continue
        info = namenode.replica_info(block_id, datanode_id)
        if info is not None and info.is_adaptive:
            hdfs.remove_replica(block_id, datanode_id)


def placement_candidates(hdfs: "Hdfs", block_id: int) -> tuple[list[int], list[int]]:
    """Where an adaptive replica of ``block_id`` may land without evicting an index.

    The one placement rule of commit and rebuild: ``(fresh, plain)``, the alive nodes holding
    no copy of the block (in ``cluster.alive_nodes`` order) and the alive holders whose replica
    is unindexed (in ``Dir_block`` order).  A plain holder's replica is *displaced* by the
    indexed one; a host carrying an index on any attribute is never a candidate, since
    replacing it would trade one index for another and destroy upload-time work.  Each caller
    orders the two lists its own way.
    """
    namenode = hdfs.namenode
    holders = set(namenode.block_datanodes(block_id, alive_only=False))
    fresh = [node.node_id for node in hdfs.cluster.alive_nodes if node.node_id not in holders]
    plain = [
        node_id
        for node_id in namenode.block_datanodes(block_id, alive_only=True)
        if (info := namenode.replica_info(block_id, node_id)) is None
        or info.indexed_attribute is None
    ]
    return fresh, plain


def _placement(hdfs: "Hdfs", build: PendingIndexBuild) -> Optional[int]:
    """The datanode a committed build lands on, ``None`` when every placement evicts an index.

    The executing node is preferred (the build was flushed there), then a plain holder, then
    a node without the block (the shipping is metadata-level in this simulation; see the
    module docstring).
    """
    fresh, plain = placement_candidates(hdfs, build.block_id)
    if build.datanode_id in fresh or build.datanode_id in plain:
        return build.datanode_id
    return next(iter(plain + fresh), None)
