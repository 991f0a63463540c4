"""HAIL configuration.

The decision which clustered index to create on which replica "can either be done by a user
through a configuration file or by a physical design algorithm" (Section 1.1).  In this
reproduction the configuration file is :class:`HailConfig`; the physical design algorithm lives
in :mod:`repro.design.advisor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.cluster.disk import (
    DEFAULT_HIGH_WATERMARK,
    DEFAULT_LOW_WATERMARK,
    DiskPressurePolicy,
)


@dataclass(frozen=True)
class HailConfig:
    """Per-deployment HAIL settings.

    Attributes
    ----------
    index_attributes:
        One entry per replica: the attribute whose clustered index that replica carries.  With
        the default replication factor of three, ``("visitDate", "sourceIP", "adRevenue")`` is
        Bob's configuration from the paper.  Shorter tuples leave the remaining replicas
        unsorted and unindexed (e.g. an empty tuple reproduces the "0 indexes" upload
        experiments); longer tuples require a matching replication factor.
    replication:
        Number of replicas per block (HDFS default three; Figure 4(c) scales this up to ten).
    partition_size:
        *Logical* values per leaf partition of the sparse clustered index (1,024 in the paper,
        Figure 2); this is what the cost model uses to size index reads.
    functional_partition_size:
        Partition size used when building the in-memory miniature index over the (scaled-down)
        functional block contents.  Experiments that emulate 64 MB blocks with a few hundred
        functional rows set this to 1 so that index lookups have realistic relative precision;
        ``None`` (default) reuses ``partition_size``.
    convert_to_pax:
        Convert blocks to binary PAX during upload (Section 3.1).  Disabling this is an
        ablation, not a paper configuration.
    splitting_policy:
        Enable HailSplitting (Section 4.3).  The paper disables it in Section 6.4 to isolate the
        benefit of the indexes and enables it in Section 6.5.
    verify_checksums:
        Functionally compute and verify chunk checksums during upload (costs are charged either
        way; switching this off only skips the Python-level CRC work for very large runs).
    adaptive_indexing:
        Enable LIAH-style adaptive indexing (off by default, keeping the paper's Figure 6/7
        baselines bit-identical): whenever a query has to fall back to scanning a block, the
        executor may sort the data it read, build a clustered index on the filter attribute and
        register an indexed replica so that subsequent queries index-scan the block.
    adaptive_offer_rate:
        Fraction of index-less block scans that pay forward per job (1.0 = every scan builds;
        lower rates amortise the build cost over more queries, LIAH's "eager adaptivity" knob).
    adaptive_budget_per_job:
        Hard cap on the number of adaptive builds one job may perform (``None`` = unlimited);
        bounds the indexing penalty any single query can be charged.
    adaptive_eviction:
        Enable disk-pressure eviction of adaptive replicas (the lifecycle manager): nodes whose
        *adaptive* replica footprint exceeds
        ``adaptive_disk_high_watermark * adaptive_disk_capacity_bytes`` drop their
        least-recently-used adaptive replicas until back under the low watermark.  Upload-time
        indexes are never evicted.
    adaptive_disk_capacity_bytes:
        Per-node byte budget for adaptive replicas — the disk the opportunistic (adaptively
        built) copies may occupy on each node before eviction kicks in.  ``None`` leaves
        pressure undefined, so nothing is ever evicted even with ``adaptive_eviction`` on.
    adaptive_disk_high_watermark / adaptive_disk_low_watermark:
        Pressure trigger and drain target as fractions of the capacity ceiling
        (hysteresis: the gap keeps the evictor from firing on every job).
    adaptive_auto_tune:
        Replace the static ``adaptive_offer_rate`` / ``adaptive_budget_per_job`` knobs with the
        feedback controller (:class:`~repro.engine.lifecycle.AdaptiveTuner`): the offer rate
        rises while measured scan savings exceed build cost and decays to zero on
        index-hostile workloads; the budget is sized so per-job build overhead stays below
        ``adaptive_overhead_fraction`` of the job's useful work.  The static knobs become the
        controller's starting point.
    adaptive_overhead_fraction:
        Auto-tuned budget target: the fraction of a job's RecordReader time the tuner allows
        adaptive builds to add.
    adaptive_multi_attribute:
        Multi-attribute convergence: when a block is already answered via an index on one of
        the query's filter attributes, offer a piggyback build on the next *uncovered* filter
        attribute, so workloads with mixed predicates converge to multi-index coverage.
    adaptive_per_attribute_tune:
        Split the auto-tuner's single global payback ledger into per-attribute ledgers
        (:class:`~repro.engine.lifecycle.AttributeLedger`): each filter attribute earns its
        own offer rate from its own cost/benefit slice, so offers are steered toward the
        attributes actually saving scan seconds.  Requires ``adaptive_auto_tune``.
    index_aware_scheduling:
        Three-tier map-task scheduling (:class:`~repro.mapreduce.job_tracker.SchedulingPolicy`):
        a free slot prefers a task with an *indexed* replica of its split on that node, then a
        plain data-local task, then the queue head — with every launch classified into the
        ``SCHED_INDEX_LOCAL`` / ``SCHED_PLAIN_LOCAL`` / ``SCHED_REMOTE`` counters.
    placement_balancer:
        Run the :class:`~repro.engine.lifecycle.PlacementBalancer` after every job:
        re-create adaptive replicas whose index coverage was lost to eviction or a node
        death (for attributes with recent demand), and migrate adaptive replicas off nodes
        whose adaptive-byte or index-use footprint exceeds the skew watermarks.
    placement_skew_high / placement_skew_low:
        Skew trigger and drain target, as multiples of the alive-node mean: a node above
        ``high × mean`` sheds adaptive replicas until back under ``low × mean``
        (hysteresis, like the disk watermarks).
    placement_rebuilds_per_job:
        Per-job work bound of the balancer — how many re-replications one post-job pass may
        perform (background work is budgeted, never bursty).
    zone_maps:
        Enable zone-map data skipping (off by default, keeping the default cost trajectory and
        the Figure 6/7 baselines bit-identical): the planner skips blocks whose registered
        ``Dir_rep`` min-max synopsis proves the predicate can match no row (the
        ``ZONE_MAP_SKIP`` access path), and the executor prunes candidate partitions against
        the payload's per-partition synopsis.  Both layers fail closed — any synopsis doubt
        degrades to a full scan, never to a dropped row — and skipping changes what is *read*,
        never what is returned.
    zone_split_pruning:
        Push zone-map skipping into the *split phase* (requires ``zone_maps``): the input
        format drops every input split whose blocks are all provably skippable, so the
        JobTracker never schedules their map tasks at all — saving the per-task scheduling
        overhead on top of the data bytes.  Pruned blocks are reported through the job's
        ``ZONE_MAP_SKIPPED_BLOCKS``/``ZONE_MAP_PRUNED_BYTES`` counters; same fail-closed
        rules as ``zone_maps``.
    max_concurrent_jobs:
        Admission gate of the concurrent service layer (off by default: ``1`` reproduces
        strictly serial execution, keeping the Figure 6/7 baselines bit-identical): how many
        jobs the JobTracker keeps *in flight* at once, interleaving their map tasks over the
        shared slot pool (:class:`~repro.mapreduce.job_tracker.ConcurrencyPolicy`).  Batch
        drains (``Session.run_batch``, ``run_multi_tenant_batch``) use it; single
        ``session.run`` calls are always serial.
    scheduler_queue_policy:
        How a freed slot picks among eligible in-flight jobs: ``"fair"`` serves the tenant
        with the fewest running map tasks (ties: least-served job, then submission order),
        ``"fifo"`` always serves the oldest admitted job.
    tenant_slot_quota:
        Cap on one tenant's *simultaneously running* map tasks across all its in-flight jobs
        (``None`` = unlimited); a saturating tenant cannot occupy every slot.
    tenant_admission_limit:
        Cap on one tenant's simultaneously *in-flight jobs* (``None`` = unlimited); jobs
        beyond it wait at the admission gate while other tenants' jobs overtake them.
    speculative_execution:
        Straggler defence of the concurrent service layer (off by default): when a freed
        slot finds no regular work, launch a backup attempt for the slowest running attempt
        whose projected duration exceeds 1.5 times the 75th percentile of its job's
        completed attempts — first finisher wins, the loser's work is discarded without
        double-counting (``SPEC_*`` counters).
    preemption:
        Revoke running attempts (kill + requeue) from a tenant exceeding its weighted slot
        entitlement, instead of only deferring its new launches; bounded per victim job by
        ``max_preemptions_per_job`` and counted in the ``PREEMPT_*`` counters.  Only acts
        when at least two tenants have in-flight work.
    max_preemptions_per_job:
        Kill budget per victim job — keeps preemption from starving one job forever.
    tenant_weights:
        Weighted fair sharing: mapping (or tuple of pairs) from tenant name to relative
        weight; scales both the fair queue's "fewest running tasks" and preemption's slot
        entitlements.  Unlisted tenants weigh 1.0.  Stored as a sorted tuple of pairs so
        the frozen config stays hashable.
    persistence:
        Durable-state backend (off by default, keeping every journal write out of the
        default path so the Figure 6/7 baselines stay bit-identical): ``"off"`` keeps all
        state in process memory as before, ``"memory"`` journals into a process-global
        in-memory store (the no-op-durability default backend, useful for crash-semantics
        tests), ``"sqlite"`` journals into one WAL-mode SQLite database per node plus an
        authoritative namenode database (see ``docs/persistence.md``).
    persistence_dir:
        Where the backend keeps its journal: a directory path for ``"sqlite"``, an opaque
        store key for ``"memory"``.  Required whenever ``persistence`` is not ``"off"`` —
        reopening a deployment with the same backend and directory is what
        ``Session.restore`` uses to bring the learned index pool back.
    """

    index_attributes: tuple[str, ...] = ()
    replication: int = 3
    partition_size: int = 1024
    functional_partition_size: Optional[int] = None
    convert_to_pax: bool = True
    splitting_policy: bool = True
    verify_checksums: bool = True
    adaptive_indexing: bool = False
    adaptive_offer_rate: float = 1.0
    adaptive_budget_per_job: Optional[int] = None
    adaptive_eviction: bool = False
    adaptive_disk_capacity_bytes: Optional[float] = None
    adaptive_disk_high_watermark: float = DEFAULT_HIGH_WATERMARK
    adaptive_disk_low_watermark: float = DEFAULT_LOW_WATERMARK
    adaptive_auto_tune: bool = False
    adaptive_overhead_fraction: float = 0.25
    adaptive_multi_attribute: bool = False
    adaptive_per_attribute_tune: bool = False
    index_aware_scheduling: bool = False
    placement_balancer: bool = False
    placement_skew_high: float = 2.0
    placement_skew_low: float = 1.5
    placement_rebuilds_per_job: int = 2
    zone_maps: bool = False
    zone_split_pruning: bool = False
    max_concurrent_jobs: int = 1
    scheduler_queue_policy: str = "fair"
    tenant_slot_quota: Optional[int] = None
    tenant_admission_limit: Optional[int] = None
    speculative_execution: bool = False
    preemption: bool = False
    max_preemptions_per_job: int = 2
    tenant_weights: Optional[tuple[tuple[str, float], ...]] = None
    persistence: str = "off"
    persistence_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be at least 1")
        if self.partition_size < 1:
            raise ValueError("partition_size must be at least 1")
        if self.functional_partition_size is not None and self.functional_partition_size < 1:
            raise ValueError("functional_partition_size must be at least 1")
        if len(self.index_attributes) > self.replication:
            raise ValueError(
                f"cannot create {len(self.index_attributes)} indexes with only "
                f"{self.replication} replicas; raise the replication factor"
            )
        if not 0.0 <= self.adaptive_offer_rate <= 1.0:
            raise ValueError("adaptive_offer_rate must lie in [0, 1]")
        if self.adaptive_budget_per_job is not None and self.adaptive_budget_per_job < 0:
            raise ValueError("adaptive_budget_per_job must be non-negative")
        # Capacity/watermark validation lives in DiskPressurePolicy (the class that enforces
        # them at eviction time); constructing a throwaway policy keeps the rule in one place.
        DiskPressurePolicy(
            capacity_bytes=self.adaptive_disk_capacity_bytes,
            high_watermark=self.adaptive_disk_high_watermark,
            low_watermark=self.adaptive_disk_low_watermark,
        )
        if not 0.0 < self.adaptive_overhead_fraction <= 1.0:
            raise ValueError("adaptive_overhead_fraction must lie in (0, 1]")
        if self.adaptive_per_attribute_tune and not self.adaptive_auto_tune:
            raise ValueError(
                "adaptive_per_attribute_tune splits the auto-tuner's ledger; "
                "enable adaptive_auto_tune as well"
            )
        if not 1.0 <= self.placement_skew_low <= self.placement_skew_high:
            raise ValueError("placement skew watermarks must satisfy 1 <= low <= high")
        if self.zone_split_pruning and not self.zone_maps:
            raise ValueError(
                "zone_split_pruning drops splits based on Dir_rep zone synopses; "
                "enable zone_maps as well"
            )
        if self.placement_rebuilds_per_job < 0:
            raise ValueError("placement_rebuilds_per_job must be non-negative")
        # Concurrency knob validation lives in ConcurrencyPolicy (the class that enforces
        # them at scheduling time); constructing a throwaway policy keeps the rule in one
        # place — exactly the DiskPressurePolicy idiom above.  The policy also normalizes
        # tenant_weights (mapping or pairs) to a sorted tuple; adopting its canonical form
        # keeps this frozen config hashable even when callers pass a dict.
        policy = self.concurrency_policy()
        object.__setattr__(self, "tenant_weights", policy.tenant_weights)
        if self.persistence not in ("off", "memory", "sqlite"):
            raise ValueError(
                f"unknown persistence backend {self.persistence!r}; known: off, memory, sqlite"
            )
        if self.persistence != "off" and not self.persistence_dir:
            raise ValueError(
                "persistence backends need a persistence_dir (journal location/store key)"
            )

    # ------------------------------------------------------------------ accessors
    @property
    def num_indexes(self) -> int:
        """Number of replicas that carry a clustered index."""
        return len(self.index_attributes)

    @property
    def effective_functional_partition_size(self) -> int:
        """Partition size to use when building the functional (in-memory) index."""
        if self.functional_partition_size is not None:
            return self.functional_partition_size
        return self.partition_size

    def attribute_for_replica(self, replica_position: int) -> Optional[str]:
        """Index attribute of the ``replica_position``-th replica (0-based), or ``None``."""
        if 0 <= replica_position < len(self.index_attributes):
            return self.index_attributes[replica_position]
        return None

    def concurrency_policy(self):
        """The :class:`~repro.mapreduce.job_tracker.ConcurrencyPolicy` these knobs describe.

        Always constructible (the policy validates the knobs); whether a deployment actually
        *uses* it for batch drains is decided by ``HailSystem.concurrency_policy()``, which
        returns ``None`` at the default ``max_concurrent_jobs=1``.
        """
        from repro.mapreduce.job_tracker import ConcurrencyPolicy

        return ConcurrencyPolicy(
            max_concurrent_jobs=self.max_concurrent_jobs,
            queue_policy=self.scheduler_queue_policy,
            tenant_slot_quota=self.tenant_slot_quota,
            tenant_admission_limit=self.tenant_admission_limit,
            speculative_execution=self.speculative_execution,
            preemption=self.preemption,
            max_preemptions_per_job=self.max_preemptions_per_job,
            tenant_weights=self.tenant_weights,
        )

    # ------------------------------------------------------------------ builders
    @classmethod
    def for_attributes(cls, attributes: Sequence[str], **overrides) -> "HailConfig":
        """Configuration indexing ``attributes``, one per replica.

        The replication factor is raised automatically when more attributes than the default
        three replicas are requested (the Figure 4(c) experiment).
        """
        attributes = tuple(attributes)
        replication = overrides.pop("replication", max(3, len(attributes)))
        return cls(index_attributes=attributes, replication=replication, **overrides)

    def with_splitting(self, enabled: bool) -> "HailConfig":
        """Copy of this configuration with HailSplitting toggled."""
        return replace(self, splitting_policy=enabled)

    def _with(self, **given) -> "HailConfig":
        """Copy of this configuration with every argument that is not ``None`` replaced."""
        return replace(
            self, **{name: value for name, value in given.items() if value is not None}
        )

    def with_adaptive(
        self,
        enabled: bool = True,
        offer_rate: Optional[float] = None,
        budget_per_job: Optional[int] = None,
    ) -> "HailConfig":
        """Copy of this configuration with adaptive indexing toggled/tuned."""
        return self._with(
            adaptive_indexing=enabled,
            adaptive_offer_rate=offer_rate,
            adaptive_budget_per_job=budget_per_job,
        )

    def with_lifecycle(
        self,
        eviction: Optional[bool] = None,
        capacity_bytes: Optional[float] = None,
        high_watermark: Optional[float] = None,
        low_watermark: Optional[float] = None,
        auto_tune: Optional[bool] = None,
        overhead_fraction: Optional[float] = None,
        multi_attribute: Optional[bool] = None,
        per_attribute_tune: Optional[bool] = None,
    ) -> "HailConfig":
        """Copy of this configuration with adaptive-lifecycle knobs toggled/tuned.

        Only the arguments given are changed; ``adaptive_indexing`` itself is left untouched
        (combine with :meth:`with_adaptive` to switch the whole subsystem on).
        """
        return self._with(
            adaptive_eviction=eviction,
            adaptive_disk_capacity_bytes=capacity_bytes,
            adaptive_disk_high_watermark=high_watermark,
            adaptive_disk_low_watermark=low_watermark,
            adaptive_auto_tune=auto_tune,
            adaptive_overhead_fraction=overhead_fraction,
            adaptive_multi_attribute=multi_attribute,
            adaptive_per_attribute_tune=per_attribute_tune,
        )

    def with_placement(
        self,
        scheduling: Optional[bool] = None,
        balancer: Optional[bool] = None,
        skew_high: Optional[float] = None,
        skew_low: Optional[float] = None,
        rebuilds_per_job: Optional[int] = None,
    ) -> "HailConfig":
        """Copy of this configuration with placement-layer knobs toggled/tuned.

        ``scheduling`` toggles index-aware task scheduling, ``balancer`` the post-job
        re-replication/skew-repair pass; the remaining arguments tune the balancer's
        watermarks and per-job rebuild bound.  Only the arguments given are changed.
        """
        return self._with(
            index_aware_scheduling=scheduling,
            placement_balancer=balancer,
            placement_skew_high=skew_high,
            placement_skew_low=skew_low,
            placement_rebuilds_per_job=rebuilds_per_job,
        )

    def with_zone_maps(
        self, enabled: bool = True, split_pruning: Optional[bool] = None
    ) -> "HailConfig":
        """Copy of this configuration with zone-map data skipping toggled.

        ``split_pruning`` additionally lets :class:`~repro.hail.input_format.HailInputFormat`
        drop whole input splits whose every block is provably skippable, so the JobTracker
        never schedules their map tasks (counted as ``ZONE_MAP_SKIPPED_BLOCKS``); it
        requires ``zone_maps`` and is left unchanged when not given.
        """
        return self._with(zone_maps=enabled, zone_split_pruning=split_pruning)

    def with_concurrency(
        self,
        max_jobs: Optional[int] = None,
        queue_policy: Optional[str] = None,
        slot_quota: Optional[int] = None,
        admission_limit: Optional[int] = None,
        speculation: Optional[bool] = None,
        preemption: Optional[bool] = None,
        max_preemptions_per_job: Optional[int] = None,
        tenant_weights=None,
    ) -> "HailConfig":
        """Copy of this configuration with concurrent-service knobs toggled/tuned.

        Only the arguments given are changed; ``max_jobs`` above 1 is what switches batch
        drains from serial to interleaved execution.  ``tenant_weights`` accepts a mapping
        or a tuple of ``(tenant, weight)`` pairs; the constructor normalizes either to a
        sorted tuple.
        """
        return self._with(
            max_concurrent_jobs=max_jobs,
            scheduler_queue_policy=queue_policy,
            tenant_slot_quota=slot_quota,
            tenant_admission_limit=admission_limit,
            speculative_execution=speculation,
            preemption=preemption,
            max_preemptions_per_job=max_preemptions_per_job,
            tenant_weights=tenant_weights,
        )

    def with_persistence(
        self, backend: str = "sqlite", directory: Optional[str] = None
    ) -> "HailConfig":
        """Copy of this configuration with the durable-state backend switched on.

        ``backend`` selects the journal implementation (``"sqlite"`` or ``"memory"``;
        ``"off"`` switches persistence back off), ``directory`` where it lives.  A
        deployment built with the same backend and directory a killed one used is what
        ``Session.restore`` reopens — see ``docs/persistence.md`` for the walkthrough.
        """
        return replace(self, persistence=backend, persistence_dir=directory)

    def with_replication(self, replication: int) -> "HailConfig":
        """Copy of this configuration with a different replication factor."""
        return replace(self, replication=replication)
