"""Adaptive-index lifecycle management: eviction, budget auto-tuning, steady state.

Adaptive (lazy) indexing (:mod:`repro.engine.adaptive`) converges a deployment to the indexes
its workload actually needs — but left alone, adaptive replicas accumulate forever and the
``adaptive_offer_rate`` / ``adaptive_budget_per_job`` knobs stay whatever the operator guessed.
This module closes both loops:

- :class:`AdaptiveTuner` — a feedback controller replacing the static knobs.  It keeps a running
  ledger of observed per-build cost (from the executor's charged build seconds) versus measured
  scan savings (the executor's counterfactual "what would this block have cost as a scan?"),
  raises the offer rate while adaptive indexes pay for themselves, decays it to zero on
  index-hostile workloads, and sizes the per-job build budget so indexing overhead stays below a
  configured fraction of a job's useful work.
- :func:`evict_under_pressure` — the eviction policy.  Every node gets a byte budget for the
  *adaptive* replicas it hosts (primary, upload-time data never counts): a node whose adaptive
  footprint — measured from the namenode's ``Dir_rep`` — exceeds the
  :class:`~repro.cluster.disk.DiskPressurePolicy` high watermark drops its least-recently-used
  adaptive replicas (ordered by the planner's per-replica index-usage statistics kept in the
  namenode) until the footprint falls below the low watermark.  Upload-time indexes are never
  evicted, a block's last alive replica is never dropped, and ``Dir_rep`` entry + stored
  replica are removed together, so eviction can never leave half-removed metadata behind.
- :class:`PlacementBalancer` — the cluster-wide placement repair loop.  Eviction and node
  failures leave *coverage holes* (blocks whose only adaptive index was reclaimed or died with
  its host) and *placement skew* (adaptive replicas and their index traffic piling up on a few
  nodes).  The balancer re-creates adaptive copies for demanded attributes whose coverage was
  lost, and migrates adaptive replicas off hot nodes when per-node adaptive-byte or index-use
  skew exceeds a watermark — never violating replication floors (it only adds, or moves
  add-before-remove) nor disk budgets (placements stay under the pressure policy's low
  watermark, so they can never trigger the evictor they feed).
- :class:`AdaptiveLifecycleManager` — the per-deployment owner of all three, invoked by the
  MapReduce runner once per job (after the failure-safe commit of staged builds).

The tuner optionally keeps **per-attribute ledgers** (:class:`AttributeLedger`): instead of one
global offer rate, each filter attribute earns its own rate from its own cost/benefit slice, so
offers are steered toward the attributes actually saving scan seconds while index-hostile
attributes decay to zero individually.

All of this is opt-in: without the :class:`~repro.hail.config.HailConfig` lifecycle knobs the
manager is never created and behaviour is bit-identical to plain adaptive indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.cluster.disk import DiskPressurePolicy
from repro.engine.adaptive import _drop_stale_adaptive_replicas

if TYPE_CHECKING:  # only for annotations: keep this module import-light
    from repro.cluster.costmodel import CostModel
    from repro.hdfs.filesystem import Hdfs
    from repro.mapreduce.counters import Counters

#: Key under which the deployment's :class:`AdaptiveLifecycleManager` travels in
#: ``JobConf.properties`` (installed by ``HailSystem``, consulted by the runner post-job).
LIFECYCLE_PROPERTY = "hail.adaptive.lifecycle"


# --------------------------------------------------------------------------- observations
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
    builds_by_attribute / build_seconds_by_attribute / uses_by_attribute /
    saved_seconds_by_attribute / fallbacks_by_attribute:
        Per-attribute slices of the five quantities above (from the ``COUNTER[attr]``
        counters) — what the per-attribute tuner ledgers and the placement balancer's demand
        tracking consume.  Empty dicts for jobs that predate the per-attribute counters.
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
    builds_by_attribute: dict = field(default_factory=dict)
    build_seconds_by_attribute: dict = field(default_factory=dict)
    uses_by_attribute: dict = field(default_factory=dict)
    saved_seconds_by_attribute: dict = field(default_factory=dict)
    fallbacks_by_attribute: dict = field(default_factory=dict)
    tenant: Optional[str] = None

    @classmethod
    def from_counters(
        cls,
        counters: "Counters",
        useful_reader_seconds: float,
        tenant: Optional[str] = None,
    ) -> "JobObservation":
        """Snapshot the adaptive-indexing counters of one job.

        ``useful_reader_seconds`` is build-free by contract: the runner already subtracted
        the staged builds' seconds from the surviving attempts' RecordReader time.
        """
        from repro.mapreduce.counters import Counters

        return cls(
            tenant=tenant,
            builds_committed=int(counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED)),
            build_seconds=counters.value(Counters.ADAPTIVE_BUILD_SECONDS),
            adaptive_uses=int(counters.value(Counters.ADAPTIVE_INDEX_USES)),
            saved_seconds=counters.value(Counters.ADAPTIVE_SAVED_SECONDS),
            fallback_blocks=int(counters.value(Counters.SCAN_FALLBACK_BLOCKS)),
            record_reader_seconds=max(0.0, useful_reader_seconds),
            builds_by_attribute={
                attr: int(count)
                for attr, count in counters.by_attribute(
                    Counters.ADAPTIVE_INDEXES_COMMITTED
                ).items()
            },
            build_seconds_by_attribute=counters.by_attribute(Counters.ADAPTIVE_BUILD_SECONDS),
            uses_by_attribute={
                attr: int(count)
                for attr, count in counters.by_attribute(Counters.ADAPTIVE_INDEX_USES).items()
            },
            saved_seconds_by_attribute=counters.by_attribute(Counters.ADAPTIVE_SAVED_SECONDS),
            fallbacks_by_attribute={
                attr: int(count)
                for attr, count in counters.by_attribute(Counters.SCAN_FALLBACK_BLOCKS).items()
            },
        )

    def for_attribute(self, attribute: str) -> "JobObservation":
        """This job as one attribute's ledger sees it: its five slices as the totals."""
        return JobObservation(
            builds_committed=self.builds_by_attribute.get(attribute, 0),
            build_seconds=self.build_seconds_by_attribute.get(attribute, 0.0),
            adaptive_uses=self.uses_by_attribute.get(attribute, 0),
            saved_seconds=self.saved_seconds_by_attribute.get(attribute, 0.0),
            fallback_blocks=self.fallbacks_by_attribute.get(attribute, 0),
        )

    @property
    def active_attributes(self) -> set:
        """Attributes this job touched adaptively (built, used an index, or fell back)."""
        return (
            set(self.builds_by_attribute)
            | set(self.uses_by_attribute)
            | set(self.fallbacks_by_attribute)
        )


# --------------------------------------------------------------------------- the tuner
@dataclass
class AttributeLedger:
    """One attribute's slice of the tuner state: its own offer rate and payback ledger.

    With per-attribute tuning enabled, every filter attribute the workload touches gets one of
    these, fed the ``COUNTER[attr]`` slices of each :class:`JobObservation` — so an attribute
    whose adaptive indexes save scan seconds converges at full speed while a hostile
    attribute's rate decays to zero without dragging the profitable one down with it.  The
    five fields carry the names of the tuner's own ledger fields: one law serves both.
    """

    offer_rate: float = 0.5
    jobs_observed: int = 0
    jobs_since_build: int = 0
    total_build_seconds: float = 0.0
    total_saved_seconds: float = 0.0


@dataclass
class AdaptiveTuner:
    """Feedback controller for ``adaptive_offer_rate`` and ``adaptive_budget_per_job``.

    One law, two kinds of ledger: :meth:`_apply_law` folds each :class:`JobObservation` into
    the tuner's own five ledger fields (the global rate) and, with ``per_attribute``, each
    attribute's slice of it into that attribute's :class:`AttributeLedger` — one method, so
    the global and per-attribute rates cannot drift apart.  The law, per job and ledger:

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

    #: Split the payback ledger per filter attribute (:class:`AttributeLedger`): offers are
    #: then steered per attribute via ``AdaptiveJobContext.attribute_offer_rates`` while the
    #: global rate keeps serving as the starting point for attributes never seen before.
    per_attribute: bool = False

    jobs_observed: int = 0
    jobs_since_build: int = 0
    total_build_seconds: float = 0.0
    total_saved_seconds: float = 0.0
    build_cost_ema: Optional[float] = None
    reader_seconds_ema: Optional[float] = None
    ledgers: dict = field(default_factory=dict)

    def observe(self, observation: JobObservation) -> None:
        """Fold one finished job into the ledger(s) and update both knobs."""
        self._apply_law(self, observation)
        if observation.builds_committed:
            per_build = observation.build_seconds / observation.builds_committed
            self.build_cost_ema = self._blend(self.build_cost_ema, per_build)
        if observation.record_reader_seconds > 0:
            self.reader_seconds_ema = self._blend(
                self.reader_seconds_ema, observation.record_reader_seconds
            )
        self._update_budget()
        if self.per_attribute:
            # An attribute the job did not touch at all counts as *idle* for its ledger (its
            # rate decays), which is what retargets the offer budget after a workload shift:
            # the old attribute's rate sinks while the newly filtered attribute's rate climbs
            # on its own savings.  Attributes never seen before start from the global rate.
            for attribute in sorted(observation.active_attributes | set(self.ledgers)):
                ledger = self.ledgers.setdefault(attribute, AttributeLedger(self.offer_rate))
                self._apply_law(ledger, observation.for_attribute(attribute))

    def attribute_rates(self) -> dict[str, float]:
        """The live per-attribute offer rates (empty unless ``per_attribute`` tuning is on)."""
        return {attribute: ledger.offer_rate for attribute, ledger in sorted(self.ledgers.items())}

    # ------------------------------------------------------------------ internals
    def _blend(self, ema: Optional[float], sample: float) -> float:
        if ema is None:
            return sample
        return (1.0 - self.ema_alpha) * ema + self.ema_alpha * sample

    def _paid_back(self, ledger: "AdaptiveTuner | AttributeLedger") -> bool:
        """True while recent savings keep up with recent build cost (decayed-window totals)."""
        if ledger.total_build_seconds <= 0.0:
            return True
        return ledger.total_saved_seconds >= self.payback_fraction * ledger.total_build_seconds

    @property
    def _payback_ok(self) -> bool:
        """:meth:`_paid_back` of the tuner's own (global) ledger."""
        return self._paid_back(self)

    def _apply_law(self, ledger: "AdaptiveTuner | AttributeLedger", job: JobObservation) -> None:
        """Fold one job into ``ledger`` and move its offer rate: raise, decay or probe.

        ``ledger`` is the tuner itself (global rate; ``job`` is the whole observation) or an
        :class:`AttributeLedger` (``job`` is its :meth:`JobObservation.for_attribute` slice).
        """
        ledger.jobs_observed += 1
        ledger.jobs_since_build = 0 if job.builds_committed else ledger.jobs_since_build + 1
        ledger.total_build_seconds = (
            self.ledger_decay * ledger.total_build_seconds + job.build_seconds
        )
        ledger.total_saved_seconds = (
            self.ledger_decay * ledger.total_saved_seconds + job.saved_seconds
        )
        idle = job.builds_committed == 0 and job.adaptive_uses == 0 and job.fallback_blocks == 0
        unpaid = (
            job.builds_committed > 0
            and not self._paid_back(ledger)
            and ledger.jobs_observed > self.grace_jobs
        )
        if job.saved_seconds > job.build_seconds and job.saved_seconds > 0:
            ledger.offer_rate = min(
                1.0, max(ledger.offer_rate, self.min_offer_rate) * self.increase_factor
            )
        elif idle or unpaid:
            ledger.offer_rate *= self.decay_factor
            if ledger.offer_rate < self.offer_floor:
                ledger.offer_rate = 0.0
        elif (
            job.fallback_blocks > 0
            and ledger.offer_rate < self.min_offer_rate
            and (self._paid_back(ledger) or ledger.jobs_since_build >= self.probe_cooldown)
        ):
            # Scans reappeared: probe cheaply.  An unpaid ledger delays the probe by
            # ``probe_cooldown`` build-free jobs but never blocks it forever — with the rate
            # at zero no builds ever run, so the debt would otherwise be frozen stale and
            # the controller stuck in an absorbing state.
            ledger.offer_rate = self.min_offer_rate

    def _update_budget(self) -> None:
        if self.build_cost_ema is None or self.build_cost_ema <= 0.0:
            return  # no build observed yet: keep the budget unlimited until the first sample
        if self.reader_seconds_ema is None or self.reader_seconds_ema <= 0.0:
            return
        tolerated = self.overhead_fraction * self.reader_seconds_ema
        self.budget = max(self.min_budget, int(tolerated / self.build_cost_ema))


# --------------------------------------------------------------------------- eviction
@dataclass(frozen=True)
class EvictionRecord:
    """One adaptive replica reclaimed by disk-pressure eviction.

    ``downgraded`` tells the two reclamation modes apart: an adaptive replica that displaced a
    plain replica at commit time is *downgraded* back to a plain, unindexed replica (the block
    keeps its copy on the node, only the index is reclaimed), whereas a replica that was added
    as an extra copy is deleted outright.  ``freed_bytes`` is the replica's footprint leaving
    the node's *adaptive* byte budget in both cases.
    """

    block_id: int
    datanode_id: int
    attribute: str
    freed_bytes: float
    use_count: int
    last_used_tick: int
    downgraded: bool = False


def evict_under_pressure(hdfs: "Hdfs", policy: DiskPressurePolicy) -> list[EvictionRecord]:
    """Evict least-recently-used adaptive replicas from every node over its high watermark.

    Pressure is measured against each node's **adaptive footprint** — the on-disk bytes of the
    adaptive replicas ``Dir_rep`` registers on it (:meth:`NameNode.adaptive_bytes_on`).  The
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
      eviction stops as soon as the node is back under its low watermark.
    """
    records: list[EvictionRecord] = []
    if not policy.enabled:
        return records
    namenode = hdfs.namenode
    # One Dir_rep pass for every node's footprint: this hook runs after every job, so it must
    # cost next to nothing when nothing is under pressure (or nothing is adaptive at all).
    footprints = namenode.adaptive_bytes_by_node()
    for node in hdfs.cluster.alive_nodes:
        used = footprints.get(node.node_id, 0)
        if not policy.under_pressure(used):
            continue
        to_free = policy.bytes_to_free(used)
        datanode = hdfs.datanode(node.node_id)
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
            namenode.record_index_eviction(block_id, info.indexed_attribute, node.node_id)
            if downgrade:
                _downgrade_replica(hdfs, node.node_id, block_id)
            else:
                namenode.unregister_replica(block_id, node.node_id)
                datanode.delete_replica(block_id)
            freed += freed_bytes
            records.append(
                EvictionRecord(
                    block_id=block_id,
                    datanode_id=node.node_id,
                    attribute=info.indexed_attribute,
                    freed_bytes=freed_bytes,
                    use_count=use_count,
                    last_used_tick=last_tick,
                    downgraded=downgrade,
                )
            )
            if hdfs.persist is not None:
                # Per-eviction journal sync: the downgrade/delete and its tombstone become
                # durable together; a crash mid-pass loses later evictions wholesale.
                hdfs.persist.sync_block(hdfs, block_id, site="mid_eviction")
    return records


def _downgrade_replica(hdfs: "Hdfs", datanode_id: int, block_id: int) -> None:
    """Strip the adaptive index off a replica, leaving a plain copy of the block's data.

    The replica's PAX data is kept (it displaced the node's plain replica at commit time, so
    deleting it would shrink the block's replication factor); the clustered index and the
    ``Dir_rep`` index metadata are dropped, and the entry's origin becomes ``"evicted"`` so
    the replica no longer counts against (or can be reclaimed from) the adaptive byte budget.
    """
    hdfs.namenode.reset_index_usage(block_id, datanode_id)
    replica = hdfs.read_replica(block_id, datanode_id)
    plain_block = replica.payload.resorted(None)
    info = plain_block.replica_info(datanode_id, origin="evicted")
    checksums = _derived_checksums(replica, plain_block)
    hdfs.install_replica(block_id, datanode_id, plain_block, info, checksums)


def _derived_checksums(source, block) -> tuple[int, ...]:
    """Chunk checksums for ``block``, derived from replica ``source``, iff ``source`` has them."""
    if not source.checksums:
        return ()
    from repro.hdfs.checksum import chunk_checksums

    return tuple(chunk_checksums(block.pax.to_bytes()))


def _adaptive_replicas_on(hdfs: "Hdfs", node_id: int) -> list[tuple]:
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
def adaptive_placement_stats(hdfs: "Hdfs") -> dict[int, dict]:
    """Per alive node: adaptive byte footprint, index-use total, and the replicas behind them.

    What both the balancer's skew repair and the reporting helper
    :func:`repro.hail.scheduler.adaptive_placement_by_node` are built on; each node's
    ``"replicas"`` list is its :func:`_adaptive_replicas_on` walk.
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


@dataclass(frozen=True)
class PlacementAction:
    """One repair the :class:`PlacementBalancer` performed after a job.

    ``kind`` is ``"rebuild"`` (an adaptive replica re-created for a block whose index
    coverage was lost to eviction or a node death) or ``"migrate"`` (an adaptive replica
    moved off a hot node by skew repair).  ``seconds`` is the simulated background I/O/CPU
    cost of the action — balancer work runs off the job's critical path, so it is reported
    but never added to a job's runtime.
    """

    kind: str
    block_id: int
    attribute: Optional[str]
    source_datanode: Optional[int]
    target_datanode: int
    bytes_moved: float
    seconds: float
    reason: str = ""


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
    def run(self, hdfs: "Hdfs", cost: Optional["CostModel"] = None) -> list[PlacementAction]:
        """One bounded balancing pass: re-replicate lost coverage, then repair skew."""
        actions = self._re_replicate(hdfs, cost)
        actions.extend(self._repair_skew(hdfs, cost))
        return actions

    # ------------------------------------------------------------------ re-replication
    def _re_replicate(self, hdfs: "Hdfs", cost: Optional["CostModel"]) -> list[PlacementAction]:
        actions: list[PlacementAction] = []
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
        hdfs: "Hdfs",
        cost: Optional["CostModel"],
        block_id: int,
        attribute: str,
        footprints: dict[int, float],
    ) -> Optional[PlacementAction]:
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
        target_id = self._choose_target(hdfs, block_id, replica_bytes, footprints)
        displaced = False
        if target_id is None:
            # Every alive node already holds a replica: displace an *unindexed* copy in
            # place, exactly like commit-time placement — the indexed replica replaces the
            # plain one, the replication factor is untouched, and ``displaced_plain_replica``
            # makes a later eviction downgrade it back instead of deleting the copy.
            target_id = self._choose_displacement_target(hdfs, block_id, replica_bytes, footprints)
            if target_id is None:
                return None
            displaced = True
        # Garbage-collect dead adaptive replicas first (no duplicate on the node's revival).
        _drop_stale_adaptive_replicas(hdfs, block_id, attribute)
        # A fresh rebuild starts its LRU life warm (``touch``), exactly like a committed build
        # would, and is journaled as soon as it is registered.
        hdfs.install_replica(
            block_id,
            target_id,
            block,
            replace(info, datanode_id=target_id, displaced_plain_replica=displaced),
            _derived_checksums(hdfs.read_replica(block_id, source_id), block),
            touch=True,
            site="mid_rebalance",
        )
        footprints[target_id] = footprints.get(target_id, 0.0) + replica_bytes
        seconds = self._charge_copy(hdfs, cost, source_id, target_id, payload, block, sort=True)
        return PlacementAction(
            kind="rebuild",
            block_id=block_id,
            attribute=attribute,
            source_datanode=source_id,
            target_datanode=target_id,
            bytes_moved=replica_bytes,
            seconds=seconds,
            reason="coverage lost (evicted or host died)",
        )

    @staticmethod
    def _source_payload(hdfs: "Hdfs", block_id: int):
        """An alive HAIL payload of ``block_id`` to rebuild from (``(None, None)`` if none)."""
        for host in hdfs.namenode.block_datanodes(block_id, alive_only=True):
            payload = hdfs.datanode(host).replica(block_id).payload
            if hasattr(payload, "pax"):
                return host, payload
        return None, None

    def _choose_target(
        self,
        hdfs: "Hdfs",
        block_id: int,
        replica_bytes: float,
        footprints: dict[int, float],
    ) -> Optional[int]:
        """Least-loaded alive node without a replica of the block and with budget headroom."""
        holders = set(hdfs.namenode.block_datanodes(block_id, alive_only=False))
        candidates = [
            node.node_id for node in hdfs.cluster.alive_nodes if node.node_id not in holders
        ]
        return self._least_loaded_within_budget(candidates, replica_bytes, footprints)

    def _choose_displacement_target(
        self,
        hdfs: "Hdfs",
        block_id: int,
        replica_bytes: float,
        footprints: dict[int, float],
    ) -> Optional[int]:
        """Least-loaded alive holder whose replica of the block is *unindexed*.

        The displacement fallback of :meth:`_rebuild` — never a host carrying an index (on
        any attribute): replacing it would trade one index for another, the destruction
        commit-time placement also refuses.
        """
        namenode = hdfs.namenode
        candidates = []
        for node_id in namenode.block_datanodes(block_id, alive_only=True):
            info = namenode.replica_info(block_id, node_id)
            if info is not None and info.indexed_attribute is not None:
                continue
            candidates.append(node_id)
        return self._least_loaded_within_budget(candidates, replica_bytes, footprints)

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
    def _repair_skew(self, hdfs: "Hdfs", cost: Optional["CostModel"]) -> list[PlacementAction]:
        """Drain skewed nodes: triggered above ``skew_high × mean``, drained to ``skew_low``.

        The watermark pair is real hysteresis: crossing the *high* mark starts a node's
        draining episode, and the episode keeps migrating until the node is under the *low*
        mark (or nothing movable is left) — so a repaired node re-enters the danger zone only
        after growing back through the whole band, not on the next build.  Per-node
        statistics are recomputed from the namenode before every migration, so each move acts
        on the placement the previous one actually produced, and the strict-improvement
        condition inside :meth:`_one_migration` guarantees termination without oscillation.
        """
        actions: list[PlacementAction] = []
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
        hdfs: "Hdfs",
        cost: Optional["CostModel"],
        metric: str,
        hot_id: int,
        stats: dict[int, dict],
        values: dict[int, float],
    ) -> Optional[PlacementAction]:
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
                return PlacementAction(
                    kind="migrate",
                    block_id=block_id,
                    attribute=info.indexed_attribute,
                    source_datanode=hot_id,
                    target_datanode=target_id,
                    bytes_moved=float(info.size_on_disk_bytes),
                    seconds=seconds,
                    reason=f"{metric} skew on dn{hot_id}",
                )
        return None

    def _migrate(
        self,
        hdfs: "Hdfs",
        cost: Optional["CostModel"],
        block_id: int,
        source_id: int,
        target_id: int,
        info,
    ) -> float:
        """Move one adaptive replica, add-before-remove, LRU history travelling along."""
        namenode = hdfs.namenode
        source = hdfs.datanode(source_id)
        replica = source.replica(block_id)
        hdfs.install_replica(
            block_id,
            target_id,
            replica.payload,
            replace(info, datanode_id=target_id),
            checksums=replica.checksums,
        )
        namenode.transfer_index_usage(block_id, source_id, target_id)
        namenode.unregister_replica(block_id, source_id)
        source.delete_replica(block_id)
        if hdfs.persist is not None:
            # Journal the whole add-before-remove move in one sync: a crash before this
            # point leaves the journal at the pre-migration state, never half-moved.
            hdfs.persist.sync_block(hdfs, block_id, site="mid_rebalance")
        return self._charge_copy(
            hdfs, cost, source_id, target_id, replica.payload, replica.payload, sort=False
        )

    @staticmethod
    def _charge_copy(
        hdfs: "Hdfs",
        cost: Optional["CostModel"],
        source_id: Optional[int],
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
        if cost is None or source_id is None:
            return 0.0
        from repro.hdfs.checksum import checksum_file_size

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
    """What the lifecycle manager did after one job."""

    observation: JobObservation
    evicted: list[EvictionRecord] = field(default_factory=list)
    offer_rate: float = 0.0
    budget: Optional[int] = None
    placement: list[PlacementAction] = field(default_factory=list)
    attribute_offer_rates: dict = field(default_factory=dict)

    @property
    def num_evicted(self) -> int:
        """Number of adaptive replicas dropped after this job."""
        return len(self.evicted)

    @property
    def num_rebuilt(self) -> int:
        """Adaptive replicas the placement balancer re-created after this job."""
        return sum(1 for action in self.placement if action.kind == "rebuild")

    @property
    def num_migrated(self) -> int:
        """Adaptive replicas the balancer's skew repair moved after this job."""
        return sum(1 for action in self.placement if action.kind == "migrate")

    @property
    def placement_bytes_moved(self) -> float:
        """Replica bytes the balancer re-created or moved after this job."""
        return sum(action.bytes_moved for action in self.placement)

    @property
    def freed_bytes(self) -> float:
        """Bytes that left the nodes' *adaptive byte budgets* after this job.

        Note this is budget accounting, not physical disk reclaimed: a downgraded replica's
        full footprint leaves the budget while its plain copy stays on disk (only the index
        bytes are physically freed); deleted extra copies free their full footprint.
        """
        return sum(record.freed_bytes for record in self.evicted)


class AdaptiveLifecycleManager:
    """Per-deployment owner of the eviction policy and the knob tuner.

    ``HailSystem`` creates one manager when the config enables eviction and/or auto-tuning,
    installs it into every job's ``JobConf.properties`` under :data:`LIFECYCLE_PROPERTY`, and
    reads :attr:`offer_rate` / :attr:`budget` back when stamping each job's
    :class:`~repro.engine.adaptive.AdaptiveJobContext`.  The MapReduce runner calls
    :meth:`after_job` once per measured job, after the staged builds were committed — so the
    tuner sees exactly what reached the namenode, and eviction acts on post-commit disk usage.
    """

    #: How many of the most recent per-job :class:`LifecycleReport`\ s to retain for
    #: monitoring (``manager.reports``); older reports are discarded so a long-lived
    #: deployment does not grow without bound.
    MAX_REPORTS = 128

    def __init__(
        self,
        pressure: Optional[DiskPressurePolicy] = None,
        tuner: Optional[AdaptiveTuner] = None,
        balancer: Optional[PlacementBalancer] = None,
    ) -> None:
        self.pressure = pressure if pressure is not None else DiskPressurePolicy()
        self.tuner = tuner
        self.balancer = balancer
        self.reports: list[LifecycleReport] = []
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
            tuner = AdaptiveTuner(
                offer_rate=config.adaptive_offer_rate,
                budget=config.adaptive_budget_per_job,
                per_attribute=config.adaptive_per_attribute_tune,
            )
        balancer = None
        if config.placement_balancer:
            # The balancer shares the eviction budget, so its placements and the evictor's
            # reclamations bound the same per-node adaptive footprint.
            balancer = PlacementBalancer(
                pressure=pressure, rebuilds_per_pass=config.placement_rebuilds_per_job
            )
        return cls(pressure=pressure, tuner=tuner, balancer=balancer)

    # ------------------------------------------------------------------ knob views
    @property
    def offer_rate(self) -> float:
        """The offer rate jobs should run with right now (tuned, or the static config value)."""
        if self.tuner is None:
            raise AttributeError("auto-tuning is off: read the static config knob instead")
        return self.tuner.offer_rate

    @property
    def budget(self) -> Optional[int]:
        """The per-job build budget jobs should run with right now."""
        if self.tuner is None:
            raise AttributeError("auto-tuning is off: read the static config knob instead")
        return self.tuner.budget

    @property
    def auto_tunes(self) -> bool:
        """True when this manager replaces the static offer/budget knobs with the tuner's."""
        return self.tuner is not None

    # ------------------------------------------------------------------ the per-job hook
    def after_job(
        self,
        hdfs: "Hdfs",
        observation: JobObservation,
        cost: Optional["CostModel"] = None,
    ) -> LifecycleReport:
        """Run the post-job lifecycle pass: tuner, disk pressure, then placement repair.

        The balancer runs *after* eviction on purpose: it sees the holes eviction just tore
        (and the tombstones it left) and repairs within the same job boundary, so coverage
        gaps live for at most one job.  ``cost`` (the runner's cost model) only prices the
        balancer's background I/O for reporting; it never changes what the balancer does.
        """
        if observation.tenant is not None:
            self.tenant_jobs[observation.tenant] = (
                self.tenant_jobs.get(observation.tenant, 0) + 1
            )
        if self.tuner is not None:
            self.tuner.observe(observation)
        evicted = evict_under_pressure(hdfs, self.pressure)
        placement: list[PlacementAction] = []
        if self.balancer is not None:
            self.balancer.observe(observation)
            placement = self.balancer.run(hdfs, cost)
        report = LifecycleReport(
            observation=observation,
            evicted=evicted,
            offer_rate=self.tuner.offer_rate if self.tuner is not None else 0.0,
            budget=self.tuner.budget if self.tuner is not None else None,
            placement=placement,
            attribute_offer_rates=(
                self.tuner.attribute_rates() if self.tuner is not None else {}
            ),
        )
        self.reports.append(report)
        if len(self.reports) > self.MAX_REPORTS:
            del self.reports[: -self.MAX_REPORTS]
        if hdfs.persist is not None:
            # Journal the learned control state the pass just updated — tuner ledgers and
            # balancer demand — so a restored deployment's feedback loops resume from the
            # same knobs instead of re-learning.  Local import: repro.persist imports this
            # module for the tuner dataclasses.
            from repro.persist import codec

            control: dict = {"tuner": codec.encode_tuner(self.tuner)}
            if self.balancer is not None:
                control["demand"] = dict(self.balancer.demand)
            hdfs.persist.sync_control(control)
        return report
