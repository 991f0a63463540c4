"""HAIL configuration.

The decision which clustered index to create on which replica "can either be done by a user
through a configuration file or by a physical design algorithm" (Section 1.1).  In this
reproduction the configuration file is :class:`HailConfig`; the physical design algorithm lives
in :mod:`repro.design.advisor`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.cluster.disk import DiskPressurePolicy
from repro.mapreduce.job_tracker import ConcurrencyPolicy


def _given(arguments: dict) -> dict:
    """The builder arguments that were actually passed (``None`` means "leave unchanged")."""
    return {name: value for name, value in arguments.items() if value is not None}


@dataclass(frozen=True)
class HailConfig:
    """Per-deployment HAIL settings, one paragraph per group.

    Every setting is declared once.  The two groups whose enforcer is itself a frozen policy
    are held *as* that policy — ``concurrency`` and ``disk_pressure`` — so their fields,
    defaults and validation are the policy's own; the groups enforced by stateful objects
    (the tuner, the balancer) stay flat here.  Everything beyond the first group is off by
    default, which keeps the paper's Figure 6/7/8 baselines bit-identical.

    **Layout and upload** (Sections 3 and 4.3).  ``index_attributes`` names, per replica, the
    attribute whose clustered index that replica carries: ``("visitDate", "sourceIP",
    "adRevenue")`` is Bob's configuration, shorter tuples leave the remaining replicas
    unsorted (an empty tuple reproduces the "0 indexes" uploads), longer ones need a matching
    ``replication`` (HDFS default three; Figure 4(c) scales it to ten).  ``partition_size`` is
    the *logical* number of values per leaf of the sparse index (1,024 in the paper), which
    the cost model uses to size index reads; ``functional_partition_size`` is the leaf size of
    the in-memory miniature index — experiments emulating 64 MB blocks with a few hundred
    rows set it to 1 for realistic lookup precision, ``None`` reuses ``partition_size``.
    ``convert_to_pax`` (Section 3.1; off is an ablation), ``splitting_policy`` (HailSplitting;
    off in Section 6.4, on in 6.5) and ``verify_checksums`` (skip only the Python-level CRC
    work, costs are charged either way) are the paper's switches.

    **Adaptive indexing** (LIAH-style).  With ``adaptive_indexing`` a query that falls back
    to scanning a block may sort what it read, build a clustered index on the filter
    attribute and register an indexed replica for later queries.  ``adaptive_offer_rate`` is
    the fraction of index-less scans that pay forward per job, ``adaptive_budget_per_job`` a
    hard cap on builds per job (``None`` = unlimited).  ``adaptive_multi_attribute`` also
    offers a piggyback build on the next *uncovered* filter attribute of a block already
    answered through an index.

    **Lifecycle.**  ``adaptive_eviction`` switches on LRU eviction of adaptive replicas
    (upload-time indexes are never evicted) against ``disk_pressure``, a
    :class:`~repro.cluster.disk.DiskPressurePolicy` bounding each node's adaptive-replica
    bytes; with the switch off the manager sees the same policy without a capacity, so
    nothing is evicted.  ``adaptive_auto_tune`` replaces the static offer rate and budget
    with the feedback controller (:class:`~repro.engine.lifecycle.AdaptiveTuner`; the static
    values become its starting point), and ``adaptive_per_attribute_tune`` splits its ledger
    per filter attribute (requires ``adaptive_auto_tune``).

    **Placement.**  ``index_aware_scheduling`` makes a free slot prefer a task with an
    *indexed* local replica, then a data-local one, then the queue head
    (:data:`~repro.mapreduce.job_tracker.SCHEDULING_PROPERTY`).  ``placement_balancer`` runs
    the :class:`~repro.engine.lifecycle.PlacementBalancer` after every job — re-creating
    coverage lost to eviction or node death and migrating replicas off skewed nodes — doing
    at most ``placement_rebuilds_per_job`` re-replications per pass.

    **Zone maps.**  ``zone_maps`` lets the planner skip blocks whose ``Dir_rep`` min-max
    synopsis proves the predicate matches no row and the executor prune partitions the same
    way; ``zone_split_pruning`` (requires ``zone_maps``) drops whole input splits before
    scheduling.  Both fail closed: any synopsis doubt degrades to a full scan, and skipping
    changes what is *read*, never what is returned.

    **Concurrency.**  ``concurrency`` is the
    :class:`~repro.mapreduce.job_tracker.ConcurrencyPolicy` batch drains
    (``Session.run_batch``, ``run_multi_tenant_batch``) hand to the JobTracker: admission
    gate, tenant quotas, queue policy, speculation, preemption and tenant weights.  At its
    default ``max_concurrent_jobs=1`` batches run back-to-back; single ``session.run`` calls
    are always serial.

    **Persistence.**  ``persistence`` picks the durable-state backend: ``"off"`` keeps all
    state in process memory, ``"memory"`` journals into a process-global store (for
    crash-semantics tests), ``"sqlite"`` into one WAL-mode database per node plus the
    namenode's (``docs/persistence.md``).  ``persistence_dir`` is where the journal lives
    (a directory, or a store key for ``"memory"``); required unless the backend is off, and
    what ``Session.restore`` reopens.
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
    disk_pressure: DiskPressurePolicy = DiskPressurePolicy()
    adaptive_auto_tune: bool = False
    adaptive_multi_attribute: bool = False
    adaptive_per_attribute_tune: bool = False
    index_aware_scheduling: bool = False
    placement_balancer: bool = False
    placement_rebuilds_per_job: int = 2
    zone_maps: bool = False
    zone_split_pruning: bool = False
    concurrency: ConcurrencyPolicy = ConcurrencyPolicy()
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
        if self.adaptive_per_attribute_tune and not self.adaptive_auto_tune:
            raise ValueError(
                "adaptive_per_attribute_tune splits the auto-tuner's ledger; "
                "enable adaptive_auto_tune as well"
            )
        if self.zone_split_pruning and not self.zone_maps:
            raise ValueError(
                "zone_split_pruning drops splits based on Dir_rep zone synopses; "
                "enable zone_maps as well"
            )
        if self.placement_rebuilds_per_job < 0:
            raise ValueError("placement_rebuilds_per_job must be non-negative")
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
        return replace(self, **_given(given))

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
        multi_attribute: Optional[bool] = None,
        per_attribute_tune: Optional[bool] = None,
    ) -> "HailConfig":
        """Copy of this configuration with adaptive-lifecycle knobs toggled/tuned.

        ``capacity_bytes`` and the watermarks are the fields of ``disk_pressure``; the rest
        are this configuration's own ``adaptive_*`` switches.  Only the arguments given are
        changed; ``adaptive_indexing`` itself is left untouched (combine with
        :meth:`with_adaptive` to switch the whole subsystem on).
        """
        pressure = _given(
            dict(
                capacity_bytes=capacity_bytes,
                high_watermark=high_watermark,
                low_watermark=low_watermark,
            )
        )
        return self._with(
            adaptive_eviction=eviction,
            disk_pressure=replace(self.disk_pressure, **pressure),
            adaptive_auto_tune=auto_tune,
            adaptive_multi_attribute=multi_attribute,
            adaptive_per_attribute_tune=per_attribute_tune,
        )

    def with_placement(
        self,
        scheduling: Optional[bool] = None,
        balancer: Optional[bool] = None,
        rebuilds_per_job: Optional[int] = None,
    ) -> "HailConfig":
        """Copy of this configuration with placement-layer knobs toggled/tuned.

        ``scheduling`` toggles index-aware task scheduling, ``balancer`` the post-job
        re-replication/skew-repair pass and ``rebuilds_per_job`` bounds that pass's work.
        Only the arguments given are changed.
        """
        return self._with(
            index_aware_scheduling=scheduling,
            placement_balancer=balancer,
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
        tenant_slot_quota: Optional[int] = None,
        tenant_admission_limit: Optional[int] = None,
        speculative_execution: Optional[bool] = None,
        preemption: Optional[bool] = None,
        max_preemptions_per_job: Optional[int] = None,
        tenant_weights=None,
    ) -> "HailConfig":
        """Copy of this configuration with fields of its ``concurrency`` policy replaced.

        ``max_jobs`` is short for ``max_concurrent_jobs`` (above 1 is what switches batch
        drains from serial to interleaved execution); every other keyword is the
        :class:`~repro.mapreduce.job_tracker.ConcurrencyPolicy` field of that name.  Only
        the arguments given are changed.
        """
        given = _given(
            dict(
                max_concurrent_jobs=max_jobs,
                queue_policy=queue_policy,
                tenant_slot_quota=tenant_slot_quota,
                tenant_admission_limit=tenant_admission_limit,
                speculative_execution=speculative_execution,
                preemption=preemption,
                max_preemptions_per_job=max_preemptions_per_job,
                tenant_weights=tenant_weights,
            )
        )
        return replace(self, concurrency=replace(self.concurrency, **given))

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
