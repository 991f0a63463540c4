"""Adaptive-index lifecycle: one post-job pass that tunes, evicts and rebalances.

Adaptive (lazy) indexing (:mod:`repro.engine.adaptive`) converges a deployment to the indexes
its workload actually needs — but left alone, adaptive replicas accumulate forever, the
``adaptive_offer_rate`` knob stays whatever the operator guessed, and no job's builds are capped.
:meth:`AdaptiveLifecycleManager.after_job` closes both loops.  HAIL's input format calls it
once per measured job (``HailInputFormat.finish_run``), after the failure-safe commit of staged
builds, and it runs one pass in this order:

1. build the job's :class:`JobObservation` from its counters;
2. :class:`AdaptiveTuner` folds it into its one payback ledger and moves the offer rate and
   the per-job build budget;
3. :func:`evict_under_pressure` drops least-recently-used adaptive replicas from every node
   over its :class:`~repro.cluster.disk.DiskPressurePolicy` budget;
4. :class:`PlacementBalancer` re-creates index coverage that eviction or a dead node took from
   a demanded attribute, then migrates adaptive replicas off skewed nodes;
5. every replica the pass evicted, downgraded, rebuilt or migrated is one
   :class:`LifecycleAction`, written into the job's counters from one kind → counters table.

The input format then journals the learned control state once.

All of this is opt-in: without the :class:`~repro.hail.config.HailConfig` lifecycle knobs the
manager is never created and behaviour is bit-identical to plain adaptive indexing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.disk import DiskPressurePolicy
from repro.engine.adaptive import _drop_stale_adaptive_replicas, placement_candidates
from repro.hdfs.checksum import checksum_file_size
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters

# --------------------------------------------------------------------------- observations
#: ``(field, counter, type)``: what :class:`JobObservation` reads from a job's counters.
_OBSERVED = (
    ("builds_committed", Counters.ADAPTIVE_INDEXES_COMMITTED, int),
    ("build_seconds", Counters.ADAPTIVE_BUILD_SECONDS, float),
    ("adaptive_uses", Counters.ADAPTIVE_INDEX_USES, int),
    ("saved_seconds", Counters.ADAPTIVE_SAVED_SECONDS, float),
    ("fallback_blocks", Counters.SCAN_FALLBACK_BLOCKS, int),
)
#: The counters whose ``COUNTER[attr]`` slices name the attributes a job touched adaptively.
_ACTIVE = (
    Counters.ADAPTIVE_INDEXES_COMMITTED,
    Counters.ADAPTIVE_INDEX_USES,
    Counters.SCAN_FALLBACK_BLOCKS,
)


@dataclass(frozen=True)
class JobObservation:
    """What one finished job tells the tuner, assembled from the job's counters.

    Attributes
    ----------
    builds_committed:
        Adaptive index builds the job's surviving attempts registered.
    build_seconds:
        Simulated seconds those builds charged on top of their scans (the cost side).
    adaptive_uses:
        Blocks the job answered via a previously built *adaptive* index.
    saved_seconds:
        Measured scan savings of those uses: per block, the executor's counterfactual scan
        cost minus the actual index-scan cost (the benefit side).
    fallback_blocks:
        Blocks the job answered without any index — the pool future builds could convert.
    record_reader_seconds:
        The job's *useful* RecordReader seconds: the runner passes total RecordReader time
        minus every staged build's seconds (committed or not — dropped builds spent their
        time too), and this sizes the build budget.
    active_attributes:
        Attributes the job touched adaptively (built, used an index, or fell back), from the
        ``COUNTER[attr]`` slices — what the placement balancer's demand tracking consumes.
    tenant:
        The tenant whose job produced this observation (``None`` for serial, single-tenant
        runs).  A tuner shared by several sessions of one deployment records it per report,
        so operators can see which tenants drove convergence.
    """

    builds_committed: int = 0
    build_seconds: float = 0.0
    adaptive_uses: int = 0
    saved_seconds: float = 0.0
    fallback_blocks: int = 0
    record_reader_seconds: float = 0.0
    active_attributes: frozenset = frozenset()
    tenant: Optional[str] = None

    @classmethod
    def from_counters(
        cls,
        counters: Counters,
        useful_reader_seconds: float,
        tenant: Optional[str] = None,
    ) -> "JobObservation":
        """Snapshot the adaptive-indexing counters of one job.

        ``useful_reader_seconds`` is build-free by contract: the runner already subtracted
        the staged builds' seconds from the surviving attempts' RecordReader time.  It is
        clamped at zero here.
        """
        return cls(
            **{name: kind(counters.value(counter)) for name, counter, kind in _OBSERVED},
            record_reader_seconds=max(0.0, useful_reader_seconds),
            active_attributes=frozenset().union(
                *(counters.by_attribute(counter) for counter in _ACTIVE)
            ),
            tenant=tenant,
        )


# --------------------------------------------------------------------------- the tuner
@dataclass
class AdaptiveTuner:
    """Feedback controller for ``adaptive_offer_rate`` and the per-job build budget.

    :meth:`_apply_law` folds each :class:`JobObservation` into the tuner's payback ledger
    and moves the offer rate.  The law, per job:

    - **raise** — when the job's measured savings exceed its build cost (adaptive indexes are
      paying for themselves), the offer rate grows multiplicatively toward 1.0 so convergence
      accelerates;
    - **decay** — when a job neither builds, uses an adaptive index, nor scans (everything the
      workload touches is already covered — the "index-hostile" steady state of random
      predicates over covered attributes), or when the cumulative ledger shows builds not
      paying back after a grace period, the offer rate shrinks multiplicatively and snaps to
      0.0 below ``offer_floor`` so a hostile workload stops paying any build cost at all;
    - **probe** — when fallback scans reappear after the rate decayed away (the workload
      shifted to an uncovered attribute), the rate is restored to ``min_offer_rate`` so the
      controller can re-learn.  Probing happens immediately while the ledger is healthy, and
      after ``probe_cooldown`` build-free jobs otherwise — an unpaid ledger slows probing
      down but can never freeze the controller at zero forever (the debt is stale precisely
      because nothing has been built for a while).

    The budget side bounds the indexing penalty of any single job: from the EMA of per-build
    cost and per-job useful work, the tuner grants as many builds as fit into
    ``overhead_fraction`` of a job's RecordReader time (at least ``min_budget`` so convergence
    never stalls completely).
    """

    offer_rate: float = 0.5
    budget: Optional[int] = None
    overhead_fraction: float = 0.25
    increase_factor: float = 1.5
    decay_factor: float = 0.5
    min_offer_rate: float = 0.05
    offer_floor: float = 0.01
    payback_fraction: float = 0.5
    grace_jobs: int = 2
    probe_cooldown: int = 4
    min_budget: int = 1
    ema_alpha: float = 0.3
    #: Per-job decay of the payback ledger: the cost/benefit totals form a sliding window of
    #: roughly ``1 / (1 - ledger_decay)`` jobs rather than a lifetime sum, so stale credit
    #: from a long profitable history cannot mask a hostile workload shift indefinitely (nor
    #: can ancient debt outlaw probing forever).
    ledger_decay: float = 0.9

    jobs_observed: int = 0
    jobs_since_build: int = 0
    total_build_seconds: float = 0.0
    total_saved_seconds: float = 0.0
    build_cost_ema: Optional[float] = None
    reader_seconds_ema: Optional[float] = None

    def observe(self, observation: JobObservation) -> None:
        """Fold one finished job into the ledger and update both knobs."""
        self._apply_law(observation)
        if observation.builds_committed:
            per_build = observation.build_seconds / observation.builds_committed
            self.build_cost_ema = self._blend(self.build_cost_ema, per_build)
        if observation.record_reader_seconds > 0:
            self.reader_seconds_ema = self._blend(
                self.reader_seconds_ema, observation.record_reader_seconds
            )
        self._update_budget()

    # ------------------------------------------------------------------ internals
    def _blend(self, ema: Optional[float], sample: float) -> float:
        if ema is None:
            return sample
        return (1.0 - self.ema_alpha) * ema + self.ema_alpha * sample

    def _paid_back(self) -> bool:
        """True while recent savings keep up with recent build cost (decayed-window totals)."""
        if self.total_build_seconds <= 0.0:
            return True
        return self.total_saved_seconds >= self.payback_fraction * self.total_build_seconds

    def _apply_law(self, job: JobObservation) -> None:
        """Fold one job into the ledger and move the offer rate: raise, decay or probe."""
        self.jobs_observed += 1
        self.jobs_since_build = 0 if job.builds_committed else self.jobs_since_build + 1
        self.total_build_seconds = self.ledger_decay * self.total_build_seconds + job.build_seconds
        self.total_saved_seconds = self.ledger_decay * self.total_saved_seconds + job.saved_seconds
        idle = job.builds_committed == 0 and job.adaptive_uses == 0 and job.fallback_blocks == 0
        unpaid = (
            job.builds_committed > 0
            and not self._paid_back()
            and self.jobs_observed > self.grace_jobs
        )
        if job.saved_seconds > job.build_seconds and job.saved_seconds > 0:
            self.offer_rate = min(
                1.0, max(self.offer_rate, self.min_offer_rate) * self.increase_factor
            )
        elif idle or unpaid:
            self.offer_rate *= self.decay_factor
            if self.offer_rate < self.offer_floor:
                self.offer_rate = 0.0
        elif (
            job.fallback_blocks > 0
            and self.offer_rate < self.min_offer_rate
            and (self._paid_back() or self.jobs_since_build >= self.probe_cooldown)
        ):
            # Scans reappeared: probe cheaply.  An unpaid ledger delays the probe by
            # ``probe_cooldown`` build-free jobs but never blocks it forever — with the rate
            # at zero no builds ever run, so the debt would otherwise be frozen stale and
            # the controller stuck in an absorbing state.
            self.offer_rate = self.min_offer_rate

    def _update_budget(self) -> None:
        if self.build_cost_ema is None or self.build_cost_ema <= 0.0:
            return  # no build observed yet: keep the budget unlimited until the first sample
        if self.reader_seconds_ema is None or self.reader_seconds_ema <= 0.0:
            return
        tolerated = self.overhead_fraction * self.reader_seconds_ema
        self.budget = max(self.min_budget, int(tolerated / self.build_cost_ema))


# --------------------------------------------------------------------------- actions
@dataclass(frozen=True)
class LifecycleAction:
    """One adaptive replica the lifecycle pass evicted, downgraded, rebuilt or migrated.

    ``kind`` is ``"evict"`` (an extra adaptive copy deleted), ``"downgrade"`` (a replica that
    displaced a plain one at commit time, stripped back to a plain copy), ``"rebuild"``
    (coverage lost to eviction or a node death, re-created) or ``"migrate"`` (moved off a
    skewed node).  ``datanode_id`` is the node acted on (evicted from, rebuilt on, migrated
    to); ``source_datanode`` is a placement's copy source.  ``bytes`` is the replica's
    footprint — for evictions, what leaves the node's adaptive byte budget (a downgrade's
    plain copy stays on disk).  ``seconds`` prices a placement's background I/O: reported,
    never added to a job's runtime, since balancer work runs off the critical path.
    """

    kind: str
    block_id: int
    attribute: str
    datanode_id: int
    bytes: float
    reason: str
    source_datanode: Optional[int] = None
    seconds: float = 0.0


#: Action kind -> ``(count counter, bytes counter)`` the post-job pass writes it into.
_ACTION_COUNTERS = {
    "evict": (Counters.ADAPTIVE_INDEXES_EVICTED, Counters.ADAPTIVE_BYTES_EVICTED),
    "downgrade": (Counters.ADAPTIVE_INDEXES_EVICTED, Counters.ADAPTIVE_BYTES_EVICTED),
    "rebuild": (Counters.PLACEMENT_REREPLICATED, Counters.PLACEMENT_BYTES_MOVED),
    "migrate": (Counters.PLACEMENT_MIGRATED, Counters.PLACEMENT_BYTES_MOVED),
}


# --------------------------------------------------------------------------- eviction
def evict_under_pressure(hdfs: Hdfs, policy: DiskPressurePolicy) -> list[LifecycleAction]:
    """Evict least-recently-used adaptive replicas from every node over its high watermark.

    Pressure is measured against each node's **adaptive footprint** — the on-disk bytes of the
    adaptive replicas ``Dir_rep`` registers on it (:meth:`NameNode.adaptive_bytes_by_node`).  The
    policy's capacity is thus a per-node budget for opportunistic storage: primary, upload-time
    replicas can never create (nor be consumed by) adaptive-index pressure.

    The invariants the eviction loop maintains (and the lifecycle tests assert):

    - only replicas whose ``Dir_rep`` entry carries ``origin="adaptive"`` are candidates —
      upload-time indexes are never evicted, whatever the pressure;
    - the block's data always survives: an adaptive replica that *displaced* a plain replica
      at commit time is **downgraded** back to a plain, unindexed replica (only the index is
      reclaimed, the replication factor is untouched), and an extra adaptive copy is deleted
      outright only while the block has another alive replica — a block's last alive replica
      is never dropped, whatever the pressure;
    - per reclamation, ``Dir_rep``, ``Dir_block`` and the stored replica change together, so
      no half-removed state can survive, and an eviction tombstone is recorded so the planner
      can explain the resulting fallbacks as "evicted (disk pressure on dnN)";
    - candidates are ordered least-recently-used first (by the namenode's planner-maintained
      index-usage ticks, ties broken by lower use count, then block id for determinism), and
      eviction stops as soon as the node is back under its low watermark.  Each action's
      ``reason`` names the tick and use count it was ordered by.
    """
    actions: list[LifecycleAction] = []
    if not policy.enabled:
        return actions
    namenode = hdfs.namenode
    # One Dir_rep pass for every node's footprint: this hook runs after every job, so it must
    # cost next to nothing when nothing is under pressure (or nothing is adaptive at all).
    footprints = namenode.adaptive_bytes_by_node()
    for node in hdfs.cluster.alive_nodes:
        used = footprints.get(node.node_id, 0)
        if not policy.under_pressure(used):
            continue
        to_free = policy.bytes_to_free(used)
        candidates = sorted(_adaptive_replicas_on(hdfs, node.node_id))
        freed = 0.0
        for last_tick, use_count, block_id, info in candidates:
            if freed >= to_free:
                break
            downgrade = info.displaced_plain_replica
            if not downgrade:
                other_alive = [
                    datanode_id
                    for datanode_id in namenode.block_datanodes(block_id, alive_only=True)
                    if datanode_id != node.node_id
                ]
                if not other_alive:
                    continue  # never drop the block's last alive replica
            freed_bytes = float(info.size_on_disk_bytes)
            # One journal sync per eviction: the downgrade/delete and its tombstone become
            # durable together; a crash mid-pass loses later evictions wholesale.
            with hdfs.mutating(block_id, "mid_eviction"):
                namenode.record_index_eviction(block_id, info.indexed_attribute, node.node_id)
                if downgrade:
                    _downgrade_replica(hdfs, node.node_id, block_id)
                else:
                    hdfs.remove_replica(block_id, node.node_id)
            freed += freed_bytes
            actions.append(
                LifecycleAction(
                    kind="downgrade" if downgrade else "evict",
                    block_id=block_id,
                    attribute=info.indexed_attribute,
                    datanode_id=node.node_id,
                    bytes=freed_bytes,
                    reason=(
                        f"disk pressure on dn{node.node_id}: last used at tick {last_tick},"
                        f" {use_count} uses"
                    ),
                )
            )
    return actions


def _downgrade_replica(hdfs: Hdfs, datanode_id: int, block_id: int) -> None:
    """Strip the adaptive index off a replica, leaving a plain copy of the block's data.

    The replica's PAX data is kept (it displaced the node's plain replica at commit time, so
    deleting it would shrink the block's replication factor); the clustered index and the
    ``Dir_rep`` index metadata are dropped, and the entry's origin becomes ``"evicted"`` so
    the replica no longer counts against (or can be reclaimed from) the adaptive byte budget.
    """
    hdfs.namenode.reset_index_usage(block_id, datanode_id)
    plain_block = hdfs.read_replica(block_id, datanode_id).payload.resorted(None)
    info = plain_block.replica_info(datanode_id, origin="evicted")
    hdfs.install_replica(block_id, datanode_id, plain_block, info)


def _adaptive_replicas_on(hdfs: Hdfs, node_id: int) -> list[tuple]:
    """One node's adaptive replicas as ``(last_used_tick, use_count, block_id, info)``.

    What counts as "adaptive" (``Dir_rep`` ``origin="adaptive"``) is decided here exactly
    once; the tuple sorts least-recently-used first, the order eviction and byte-skew repair
    reclaim in.
    """
    namenode = hdfs.namenode
    replicas = []
    for block_id in hdfs.datanode(node_id).block_ids():
        info = namenode.replica_info(block_id, node_id)
        if info is None or not info.is_adaptive:
            continue
        use_count, last_tick = namenode.index_usage(block_id, node_id)
        replicas.append((last_tick, use_count, block_id, info))
    return replicas


# --------------------------------------------------------------------------- placement
def adaptive_placement_stats(hdfs: Hdfs) -> dict[int, dict]:
    """Per alive node: adaptive byte footprint, index-use total, and the replicas behind them.

    What the balancer's skew repair is built on; each node's ``"replicas"`` list is its
    :func:`_adaptive_replicas_on` walk.
    """
    stats: dict[int, dict] = {}
    for node in hdfs.cluster.alive_nodes:
        replicas = _adaptive_replicas_on(hdfs, node.node_id)
        stats[node.node_id] = {
            "bytes": sum(float(info.size_on_disk_bytes) for _, _, _, info in replicas),
            "uses": sum(float(use_count) for _, use_count, _, _ in replicas),
            "replicas": replicas,
        }
    return stats


@dataclass
class PlacementBalancer:
    """Cluster-wide repair of adaptive-replica placement: re-replication plus skew repair.

    The balancer runs once per job (after commit and eviction) and performs bounded work:

    - **Re-replication** — for every attribute with *recent demand* (the workload built, used
      or fell back on it within the last ``demand_window`` jobs), blocks whose index coverage
      was **lost** — an eviction tombstone exists, or every replica carrying the index sits on
      a dead node — get a fresh adaptive replica, rebuilt from an alive copy of the block's
      data onto the least-loaded alive node that holds no replica of the block.  At most
      ``rebuilds_per_pass`` per run.  Demand gating is what keeps re-replication and eviction
      from fighting: a *cold* evicted index has no demand, so it is never rebuilt just to be
      evicted again.
    - **Skew repair** — when one node's adaptive byte footprint (or adaptive index-use count)
      exceeds ``skew_high ×`` the alive-node mean, adaptive replicas are migrated to
      underloaded nodes until the node is back under ``skew_low ×`` the mean.  Byte skew
      migrates the *coldest* replicas (reclaim space without disturbing hot traffic); use
      skew migrates the *hottest* (spread the index-scan traffic itself).  Every migration
      must strictly reduce the hot/cold gap (``target + m ≤ source − m``), which rules out
      ping-pong oscillation by construction.

    Invariants, shared with eviction and asserted by the placement tests: replication floors
    are never violated (rebuilds only *add* replicas; migrations add on the target before
    removing from the source), and no placement may lift a node past the pressure policy's
    **low** watermark — the balancer can never push a node into the pressure region that
    would summon the evictor it runs next to.
    """

    pressure: DiskPressurePolicy = field(default_factory=DiskPressurePolicy)
    skew_high: float = 2.0
    skew_low: float = 1.5
    rebuilds_per_pass: int = 2
    migrations_per_pass: int = 4
    #: How many jobs an attribute's demand survives without fresh activity.
    demand_window: int = 4
    #: attribute -> jobs of demand left (refreshed by :meth:`observe`).
    demand: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1.0 <= self.skew_low <= self.skew_high:
            raise ValueError("skew watermarks must satisfy 1 <= low <= high")

    # ------------------------------------------------------------------ demand tracking
    def observe(self, observation: JobObservation) -> None:
        """Refresh per-attribute demand from one finished job's counter slices."""
        for attribute in list(self.demand):
            self.demand[attribute] -= 1
            if self.demand[attribute] <= 0:
                del self.demand[attribute]
        for attribute in observation.active_attributes:
            self.demand[attribute] = self.demand_window

    # ------------------------------------------------------------------ the per-job pass
    def run(self, hdfs: Hdfs, cost: Optional[CostModel] = None) -> list[LifecycleAction]:
        """One bounded balancing pass: re-replicate lost coverage, then repair skew."""
        actions = self._re_replicate(hdfs, cost)
        actions.extend(self._repair_skew(hdfs, cost))
        return actions

    # ------------------------------------------------------------------ re-replication
    def _re_replicate(self, hdfs: Hdfs, cost: Optional[CostModel]) -> list[LifecycleAction]:
        actions: list[LifecycleAction] = []
        if not self.demand:
            return actions
        namenode = hdfs.namenode
        footprints = dict(namenode.adaptive_bytes_by_node())
        quota = self.rebuilds_per_pass
        for path in namenode.list_files():
            for block_id in namenode.file_blocks(path):
                if quota <= 0:
                    return actions
                for attribute in sorted(self.demand):
                    if namenode.hosts_with_index(block_id, attribute, alive_only=True):
                        continue  # coverage intact — nothing to repair
                    if not self._coverage_lost(namenode, block_id, attribute):
                        continue  # never built: that is adaptive indexing's job, not repair
                    action = self._rebuild(hdfs, cost, block_id, attribute, footprints)
                    if action is not None:
                        actions.append(action)
                        quota -= 1
                    if quota <= 0:
                        break
        return actions

    @staticmethod
    def _coverage_lost(namenode, block_id: int, attribute: str) -> bool:
        """Did ``(block, attribute)`` *have* an index that eviction or a node death took away?"""
        if namenode.index_eviction(block_id, attribute) is not None:
            return True
        # No alive host (the caller checked); any remaining host with the index is dead.
        return bool(namenode.hosts_with_index(block_id, attribute, alive_only=False))

    def _rebuild(
        self,
        hdfs: Hdfs,
        cost: Optional[CostModel],
        block_id: int,
        attribute: str,
        footprints: dict[int, float],
    ) -> Optional[LifecycleAction]:
        """Re-create one adaptive replica of ``block_id`` indexed on ``attribute``.

        The index is rebuilt from an alive copy of the block's data (HAIL replicas share
        logical content, so any alive HAIL payload serves as the source) and registered on
        the least-loaded alive node without a replica of the block — the placement both
        restores coverage *and* adds a copy, the re-replication the ROADMAP asked for.
        ``None`` when no source payload, schema attribute, or budget-respecting target
        exists; the next pass retries with whatever changed.
        """
        source_id, payload = self._source_payload(hdfs, block_id)
        if payload is None or attribute not in payload.schema.field_names:
            return None
        block = payload.resorted(attribute)
        info = block.replica_info(-1, origin="adaptive")  # datanode set once the target is chosen
        replica_bytes = float(info.size_on_disk_bytes)
        fresh, plain = placement_candidates(hdfs, block_id)
        target_id = self._least_loaded_within_budget(fresh, replica_bytes, footprints)
        displaced = target_id is None
        if displaced:
            # Every alive node already holds a replica: displace an *unindexed* copy in
            # place, exactly like commit-time placement — the replication factor is untouched,
            # and ``displaced_plain_replica`` makes a later eviction downgrade it back instead
            # of deleting the copy.
            target_id = self._least_loaded_within_budget(plain, replica_bytes, footprints)
            if target_id is None:
                return None
        # One journal sync for the rebuild, stale-replica collection included.
        with hdfs.mutating(block_id, "mid_rebalance"):
            # Garbage-collect dead adaptive replicas first (no duplicate on the node's revival).
            _drop_stale_adaptive_replicas(hdfs, block_id, attribute)
            # A fresh rebuild starts its LRU life warm (``touch``), like a committed build.
            hdfs.install_replica(
                block_id,
                target_id,
                block,
                replace(info, datanode_id=target_id, displaced_plain_replica=displaced),
                touch=True,
            )
        footprints[target_id] = footprints.get(target_id, 0.0) + replica_bytes
        seconds = self._charge_copy(hdfs, cost, source_id, target_id, payload, block, sort=True)
        return LifecycleAction(
            kind="rebuild",
            block_id=block_id,
            attribute=attribute,
            datanode_id=target_id,
            bytes=replica_bytes,
            reason="coverage lost (evicted or host died)",
            source_datanode=source_id,
            seconds=seconds,
        )

    @staticmethod
    def _source_payload(hdfs: Hdfs, block_id: int):
        """An alive HAIL payload of ``block_id`` to rebuild from (``(None, None)`` if none)."""
        for host in hdfs.namenode.block_datanodes(block_id, alive_only=True):
            payload = hdfs.datanode(host).replica(block_id).payload
            if hasattr(payload, "pax"):
                return host, payload
        return None, None

    def _least_loaded_within_budget(
        self, candidates: list[int], replica_bytes: float, footprints: dict[int, float]
    ) -> Optional[int]:
        """The least-loaded candidate the replica fits on under the placement budget."""
        for node_id in sorted(candidates, key=lambda n: (footprints.get(n, 0.0), n)):
            if self._within_budget(footprints.get(node_id, 0.0) + replica_bytes):
                return node_id
        return None

    def _within_budget(self, projected_bytes: float) -> bool:
        """May a placement leave a node at ``projected_bytes`` of adaptive footprint?

        Placements are held to the pressure policy's **low** watermark — strictly inside the
        hysteresis band — so the balancer can never lift a node into the region where the
        evictor fires (the migrate/evict oscillation the invariant tests rule out).
        """
        if not self.pressure.enabled:
            return True
        return projected_bytes <= self.pressure.low_watermark * self.pressure.capacity_bytes

    # ------------------------------------------------------------------ skew repair
    def _repair_skew(self, hdfs: Hdfs, cost: Optional[CostModel]) -> list[LifecycleAction]:
        """Drain skewed nodes: triggered above ``skew_high × mean``, drained to ``skew_low``.

        The watermark pair is real hysteresis: crossing the *high* mark starts a node's
        draining episode, and the episode keeps migrating until the node is under the *low*
        mark (or nothing movable is left) — so a repaired node re-enters the danger zone only
        after growing back through the whole band, not on the next build.  Per-node
        statistics are recomputed from the namenode before every migration, so each move acts
        on the placement the previous one actually produced, and the strict-improvement
        condition inside :meth:`_one_migration` guarantees termination without oscillation.
        """
        actions: list[LifecycleAction] = []
        quota = self.migrations_per_pass
        for metric in ("bytes", "uses"):
            draining: set[int] = set()
            exhausted: set[int] = set()
            while quota > 0:
                stats = adaptive_placement_stats(hdfs)
                if len(stats) < 2:
                    break
                values = {node_id: entry[metric] for node_id, entry in stats.items()}
                mean = sum(values.values()) / len(values)
                if mean <= 0.0:
                    break
                hot_id = self._pick_hot_node(values, mean, draining, exhausted)
                if hot_id is None:
                    break
                action = self._one_migration(hdfs, cost, metric, hot_id, stats, values)
                if action is None:
                    exhausted.add(hot_id)  # nothing movable left: never re-pick this pass
                    continue
                draining.add(hot_id)
                actions.append(action)
                quota -= 1
        return actions

    def _pick_hot_node(
        self,
        values: dict[int, float],
        mean: float,
        draining: set[int],
        exhausted: set[int],
    ) -> Optional[int]:
        """The node to shed from next: over the high mark, or mid-drain and over the low mark."""
        candidates = [
            node_id
            for node_id, value in values.items()
            if node_id not in exhausted
            and (
                value > self.skew_high * mean
                or (node_id in draining and value > self.skew_low * mean)
            )
        ]
        if not candidates:
            return None
        return sorted(candidates, key=lambda node_id: (-values[node_id], node_id))[0]

    def _one_migration(
        self,
        hdfs: Hdfs,
        cost: Optional[CostModel],
        metric: str,
        hot_id: int,
        stats: dict[int, dict],
        values: dict[int, float],
    ) -> Optional[LifecycleAction]:
        """Migrate one adaptive replica off ``hot_id``, or ``None`` when nothing qualifies.

        The strict-improvement condition (``target + m ≤ source − m``) guarantees each move
        shrinks the hot/cold spread, which is why repeated passes terminate instead of
        oscillating.
        """
        replicas = stats[hot_id]["replicas"]
        if metric == "bytes":
            # Coldest first: reclaim space without disturbing the node's hot index traffic.
            replicas.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        else:
            # Hottest first: spread the index-scan traffic itself.
            replicas.sort(key=lambda entry: (-entry[1], entry[0], entry[2]))
        for last_tick, use_count, block_id, info in replicas:
            moved = float(info.size_on_disk_bytes) if metric == "bytes" else float(use_count)
            if moved <= 0.0:
                continue
            holders = set(hdfs.namenode.block_datanodes(block_id, alive_only=False))
            targets = [
                node_id
                for node_id in values
                if node_id not in holders and node_id != hot_id
            ]
            targets.sort(key=lambda node_id: (values[node_id], node_id))
            for target_id in targets:
                if values[target_id] + moved > values[hot_id] - moved:
                    break  # no strict improvement possible: colder targets are exhausted
                projected = stats[target_id]["bytes"] + info.size_on_disk_bytes
                if not self._within_budget(projected):
                    continue
                seconds = self._migrate(hdfs, cost, block_id, hot_id, target_id, info)
                return LifecycleAction(
                    kind="migrate",
                    block_id=block_id,
                    attribute=info.indexed_attribute,
                    datanode_id=target_id,
                    bytes=float(info.size_on_disk_bytes),
                    reason=f"{metric} skew on dn{hot_id}",
                    source_datanode=hot_id,
                    seconds=seconds,
                )
        return None

    def _migrate(
        self,
        hdfs: Hdfs,
        cost: Optional[CostModel],
        block_id: int,
        source_id: int,
        target_id: int,
        info,
    ) -> float:
        """Move one adaptive replica, add-before-remove, LRU history travelling along."""
        replica = hdfs.read_replica(block_id, source_id)
        # The whole add-before-remove move is one journal sync: a crash before it leaves the
        # journal at the pre-migration state, never half-moved.
        with hdfs.mutating(block_id, "mid_rebalance"):
            hdfs.install_replica(
                block_id, target_id, replica.payload, replace(info, datanode_id=target_id)
            )
            hdfs.namenode.transfer_index_usage(block_id, source_id, target_id)
            hdfs.remove_replica(block_id, source_id)
        return self._charge_copy(
            hdfs, cost, source_id, target_id, replica.payload, replica.payload, sort=False
        )

    @staticmethod
    def _charge_copy(
        hdfs: Hdfs,
        cost: Optional[CostModel],
        source_id: int,
        target_id: int,
        payload,
        new_block,
        sort: bool,
    ) -> float:
        """Simulated seconds of one balancer copy: read, ship, (re)sort+index, flush.

        Background cost accounting only — reported per action so operators can budget the
        balancer's I/O, never charged to a job's runtime (the work is off the critical path,
        like HDFS re-replication).
        """
        if cost is None:
            return 0.0
        source_node = hdfs.cluster.node(source_id)
        target_node = hdfs.cluster.node(target_id)
        data_bytes = cost.scale_bytes(float(payload.data_size_bytes()))
        seconds = cost.disk(source_node).sequential_read(data_bytes)
        if source_id != target_id:
            seconds += cost.network.transfer(
                data_bytes,
                source_node.hardware,
                target_node.hardware,
                hdfs.cluster.locality(source_id, target_id),
            )
        cpu = cost.cpu(target_node)
        if sort:
            logical_values = int(cost.scale_count(payload.num_records))
            seconds += cpu.sort_block(logical_values, data_bytes)
            seconds += cpu.build_index(logical_values)
        write_bytes = float(new_block.size_bytes())
        write_bytes += checksum_file_size(write_bytes)
        seconds += cpu.checksum(cost.scale_bytes(float(new_block.size_bytes())))
        seconds += cost.disk(target_node).sequential_write(cost.scale_bytes(write_bytes))
        return seconds


# --------------------------------------------------------------------------- the manager
@dataclass
class LifecycleReport:
    """One post-job pass: the observation it acted on, its actions, the knobs it left.

    ``offer_rate`` / ``budget`` are the tuner's knobs after the pass, what the next job runs
    with (``0.0`` / ``None`` without a tuner).
    """

    observation: JobObservation
    actions: list[LifecycleAction] = field(default_factory=list)
    offer_rate: float = 0.0
    budget: Optional[int] = None


class AdaptiveLifecycleManager:
    """Per-deployment owner of the tuner, the eviction policy and the placement balancer.

    ``HailSystem`` creates one manager when the config enables eviction, auto-tuning and/or
    the balancer, hands it to every job's ``HailInputFormat``, and stamps each job's
    :class:`~repro.engine.adaptive.AdaptiveJobContext` with :attr:`tuner`'s knobs.  The
    format's ``finish_run`` calls :meth:`after_job` once per measured job, after the staged
    builds were committed — so the tuner sees exactly what reached the namenode, and eviction
    acts on post-commit disk usage.
    """

    def __init__(
        self,
        pressure: Optional[DiskPressurePolicy] = None,
        tuner: Optional[AdaptiveTuner] = None,
        balancer: Optional[PlacementBalancer] = None,
    ) -> None:
        self.pressure = pressure if pressure is not None else DiskPressurePolicy()
        self.tuner = tuner
        self.balancer = balancer
        #: The most recent per-job :class:`LifecycleReport`\ s, for monitoring; older ones
        #: are discarded so a long-lived deployment does not grow without bound.
        self.reports: deque[LifecycleReport] = deque(maxlen=128)
        #: Jobs observed per tenant (tagged observations only — serial runs stay untagged).
        #: A deployment shared by several sessions shows here which tenants fed the tuner.
        self.tenant_jobs: dict[str, int] = {}

    @classmethod
    def from_config(cls, config) -> Optional["AdaptiveLifecycleManager"]:
        """Build the manager a :class:`~repro.hail.config.HailConfig` asks for (or ``None``).

        Returns ``None`` unless adaptive indexing plus at least one lifecycle feature
        (eviction, auto-tuning, or the placement balancer) is enabled, so default
        configurations never pay for — or observe — any lifecycle machinery.
        """
        if not config.adaptive_indexing:
            return None
        if not (
            config.adaptive_eviction or config.adaptive_auto_tune or config.placement_balancer
        ):
            return None
        pressure = config.disk_pressure
        if not config.adaptive_eviction:
            pressure = replace(pressure, capacity_bytes=None)
        tuner = None
        if config.adaptive_auto_tune:
            tuner = AdaptiveTuner(offer_rate=config.adaptive_offer_rate)
        balancer = None
        if config.placement_balancer:
            # The balancer shares the eviction budget, so its placements and the evictor's
            # reclamations bound the same per-node adaptive footprint.
            balancer = PlacementBalancer(
                pressure=pressure, rebuilds_per_pass=config.placement_rebuilds_per_job
            )
        return cls(pressure=pressure, tuner=tuner, balancer=balancer)

    # ------------------------------------------------------------------ the per-job pass
    def after_job(
        self,
        hdfs: Hdfs,
        counters: Counters,
        useful_reader_seconds: float,
        tenant: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> LifecycleReport:
        """Run the post-job lifecycle pass over one finished job's ``counters``.

        Observe the job, tune, evict under disk pressure, rebalance, write every action into
        ``counters``.  The balancer runs *after* eviction on purpose: it sees the holes
        eviction just tore (and the tombstones it left) and repairs within the same job
        boundary, so coverage gaps live for at most one job.
        ``useful_reader_seconds`` is the job's build-free RecordReader time (it sizes the
        tuner's budget), ``tenant`` tags the observation, and ``cost`` (the runner's cost
        model) only prices the balancer's background I/O; it never changes what it does.
        """
        observation = JobObservation.from_counters(counters, useful_reader_seconds, tenant)
        if tenant is not None:
            self.tenant_jobs[tenant] = self.tenant_jobs.get(tenant, 0) + 1
        tuner = self.tuner
        if tuner is not None:
            tuner.observe(observation)
        actions = evict_under_pressure(hdfs, self.pressure)
        if self.balancer is not None:
            self.balancer.observe(observation)
            actions += self.balancer.run(hdfs, cost)
        for action in actions:
            count, moved = _ACTION_COUNTERS[action.kind]
            counters.increment(count)
            counters.increment(moved, action.bytes)
        report = LifecycleReport(observation, actions)
        if tuner is not None:
            report.offer_rate, report.budget = tuner.offer_rate, tuner.budget
        self.reports.append(report)
        return report
