"""HAIL configuration.

The decision which clustered index to create on which replica "can either be done by a user
through a configuration file or by a physical design algorithm" (Section 1.1).  In this
reproduction it is the configuration file, :class:`HailConfig`; adaptive indexing
(``adaptive_indexing``) adds the indexes the workload asks for at query time.  A job's queries
read the deployment's config through their input format: ``HailSystem`` builds one
:class:`~repro.hail.input_format.HailInputFormat` per job from it, and that format is the only
path HAIL settings take into the MapReduce layer.

The other fields are switches.  A switch with a single value in use does not stay a field: it
becomes a constant where it is enforced (the JobTracker's ``MAX_PREEMPTIONS_PER_JOB``), or the
code for its other value goes (the auto-tuner keeps one payback ledger, never one per
attribute).
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
    ``convert_to_pax`` (Section 3.1; off is an ablation) and ``splitting_policy``
    (HailSplitting; off in Section 6.4, on in 6.5) are the paper's switches.  There is no
    checksum switch: the cost model charges every replica's checksum pass, and the chunk CRCs
    themselves are computed only where the persistence journal writes a payload
    (:mod:`repro.persist.state`).

    **Adaptive indexing** (LIAH-style).  With ``adaptive_indexing`` a query that falls back
    to scanning a block may sort what it read, build a clustered index on the filter
    attribute and register an indexed replica for later queries.  ``adaptive_offer_rate`` is
    the fraction of index-less scans that pay forward per job; builds per job are unlimited
    unless the tuner below caps them.

    **Lifecycle.**  ``adaptive_eviction`` switches on LRU eviction of adaptive replicas
    (upload-time indexes are never evicted) against ``disk_pressure``, a
    :class:`~repro.cluster.disk.DiskPressurePolicy` bounding each node's adaptive-replica
    bytes; with the switch off the manager sees the same policy without a capacity, so
    nothing is evicted.  ``adaptive_auto_tune`` replaces the static offer rate with the
    feedback controller (:class:`~repro.engine.lifecycle.AdaptiveTuner`; the static rate
    becomes its starting point), which also sizes a per-job build budget from its
    measurements.

    **Placement.**  ``index_aware_scheduling`` makes a free slot prefer a task with an
    *indexed* local replica, then a data-local one, then the queue head (the job's input
    format carries it as ``InputFormat.index_aware_scheduling``).  ``placement_balancer`` runs
    the :class:`~repro.engine.lifecycle.PlacementBalancer` after every job — re-creating
    coverage lost to eviction or node death and migrating replicas off skewed nodes — doing
    at most ``placement_rebuilds_per_job`` re-replications per pass.

    **Zone maps.**  ``zone_maps`` lets the planner skip blocks whose ``Dir_rep`` min-max
    synopsis proves the predicate matches no row and the executor prune partitions the same
    way.  Every skip is re-checked against the opened payload inside its map task and fails
    closed: any synopsis doubt degrades to a full scan, and skipping changes what is *read*,
    never what is returned.

    **Concurrency.**  ``concurrency`` is the
    :class:`~repro.mapreduce.job_tracker.ConcurrencyPolicy` batch drains
    (``Session.run_batch``, ``run_multi_tenant_batch``) hand to the JobTracker: admission
    gate, tenant quotas, speculation, preemption and tenant weights.  At its
    default ``max_concurrent_jobs=1`` batches run back-to-back; single ``session.run`` calls
    are always serial.

    **Persistence.**  ``persistence_dir`` is the directory of the durable-state journal, one
    WAL-mode SQLite database per node plus the namenode's (``docs/persistence.md``), and
    what ``Session.restore`` reopens.  Journaling is on exactly when it is set; ``None``
    keeps all state in process memory.
    """

    index_attributes: tuple[str, ...] = ()
    replication: int = 3
    partition_size: int = 1024
    functional_partition_size: Optional[int] = None
    convert_to_pax: bool = True
    splitting_policy: bool = True
    adaptive_indexing: bool = False
    adaptive_offer_rate: float = 1.0
    adaptive_eviction: bool = False
    disk_pressure: DiskPressurePolicy = DiskPressurePolicy()
    adaptive_auto_tune: bool = False
    index_aware_scheduling: bool = False
    placement_balancer: bool = False
    placement_rebuilds_per_job: int = 2
    zone_maps: bool = False
    concurrency: ConcurrencyPolicy = ConcurrencyPolicy()
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
        if self.placement_rebuilds_per_job < 0:
            raise ValueError("placement_rebuilds_per_job must be non-negative")
        if self.persistence_dir == "":
            raise ValueError("persistence_dir must name a directory (None switches it off)")

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

    def _with(self, **given) -> "HailConfig":
        """Copy of this configuration with every argument that is not ``None`` replaced."""
        return replace(self, **_given(given))

    def with_adaptive(
        self, enabled: bool = True, offer_rate: Optional[float] = None
    ) -> "HailConfig":
        """Copy of this configuration with adaptive indexing toggled/tuned."""
        return self._with(adaptive_indexing=enabled, adaptive_offer_rate=offer_rate)

    def with_lifecycle(
        self,
        eviction: Optional[bool] = None,
        capacity_bytes: Optional[float] = None,
        high_watermark: Optional[float] = None,
        low_watermark: Optional[float] = None,
        auto_tune: Optional[bool] = None,
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

    def with_zone_maps(self, enabled: bool = True) -> "HailConfig":
        """Copy of this configuration with zone-map data skipping toggled."""
        return replace(self, zone_maps=enabled)

    def with_concurrency(
        self,
        max_jobs: Optional[int] = None,
        tenant_slot_quota: Optional[int] = None,
        speculative_execution: Optional[bool] = None,
        preemption: Optional[bool] = None,
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
                tenant_slot_quota=tenant_slot_quota,
                speculative_execution=speculative_execution,
                preemption=preemption,
                tenant_weights=tenant_weights,
            )
        )
        return replace(self, concurrency=replace(self.concurrency, **given))

    def with_persistence(
        self, backend: str = "sqlite", directory: Optional[str] = None
    ) -> "HailConfig":
        """Copy of this configuration with the journal switched on (or off).

        ``"sqlite"`` journals into ``directory``, which it requires; ``"off"`` clears
        ``persistence_dir``.  A deployment built with the directory a killed one used is
        what ``Session.restore`` reopens — see ``docs/persistence.md`` for the walkthrough.
        """
        if backend == "off":
            return replace(self, persistence_dir=None)
        if backend != "sqlite":
            raise ValueError(f"unknown persistence backend {backend!r}; accepted: sqlite, off")
        if directory is None:
            raise ValueError("the sqlite journal needs a directory")
        return replace(self, persistence_dir=directory)
