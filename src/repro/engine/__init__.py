"""The unified query-execution engine.

One place for the skip-or-scan decision all three systems (Hadoop, Hadoop++, HAIL) used to make
privately inside their record readers:

- :mod:`repro.engine.access_path` — :class:`AccessPath` and the per-block :class:`BlockPlan`;
- :mod:`repro.engine.planner`     — :class:`PhysicalPlanner` producing inspectable
  :class:`QueryPlan` objects from the namenode's ``Dir_rep`` (with ``explain()``);
- :mod:`repro.engine.executor`    — :class:`VectorizedExecutor` evaluating predicates
  column-at-a-time over PAX partitions and charging the simulated RecordReader cost;
- :mod:`repro.engine.kernels`     — the columnar filter kernels the executor dispatches to:
  a pure-Python reference backend and an optional numpy fast path (``set_backend``);
- :mod:`repro.engine.adaptive`    — LIAH-style adaptive indexing: full scans stage indexed
  replicas as a by-product (:class:`PendingIndexBuild`), which the scheduler registers
  failure-safely after the map phase (:func:`commit_adaptive_builds`);
- :mod:`repro.engine.lifecycle`   — adaptive-index lifecycle management: one post-job pass
  of :class:`AdaptiveLifecycleManager` runs the :class:`AdaptiveTuner` feedback controller
  that replaces the static offer-rate/budget knobs, disk-pressure LRU eviction
  (:func:`evict_under_pressure`) and the placement balancer, and reports every replica it
  evicted, downgraded, rebuilt or migrated as one :class:`LifecycleAction`;
- :mod:`repro.engine.operators`   — relational operators on top of the scan engine: grouped
  aggregation with map-side combiners, co-partitioned merge / shuffle hash equi-joins, and
  ranked top-k with zone-range early termination.

Record readers are thin shells over ``planner.plan_block()`` + ``executor.execute()``; every
:class:`~repro.systems.base.QueryResult` carries the :class:`QueryPlan` that produced it.
"""

from repro.engine.access_path import AccessPath, BlockPlan
from repro.engine.adaptive import (
    ADAPTIVE_PROPERTY,
    AdaptiveCommitReport,
    AdaptiveJobContext,
    PendingIndexBuild,
    commit_adaptive_builds,
)
from repro.engine.lifecycle import (
    LIFECYCLE_PROPERTY,
    AdaptiveLifecycleManager,
    AdaptiveTuner,
    JobObservation,
    LifecycleAction,
    LifecycleReport,
    evict_under_pressure,
)
from repro.engine import kernels
from repro.engine.executor import (
    BlockScanResult,
    TextScanResult,
    VectorizedExecutor,
    clause_mask,
    vectorized_filter,
)
from repro.engine.operators import (
    AggregateSpec,
    GroupByQuery,
    JoinQuery,
    OperatorQuery,
    TopKQuery,
    explain_operator,
)
from repro.engine.planner import PhysicalPlanner, QueryPlan, choose_indexed_host

__all__ = [
    "AggregateSpec",
    "GroupByQuery",
    "JoinQuery",
    "OperatorQuery",
    "TopKQuery",
    "explain_operator",
    "AccessPath",
    "ADAPTIVE_PROPERTY",
    "AdaptiveCommitReport",
    "AdaptiveJobContext",
    "AdaptiveLifecycleManager",
    "AdaptiveTuner",
    "JobObservation",
    "LIFECYCLE_PROPERTY",
    "LifecycleAction",
    "LifecycleReport",
    "evict_under_pressure",
    "BlockPlan",
    "BlockScanResult",
    "PendingIndexBuild",
    "TextScanResult",
    "VectorizedExecutor",
    "clause_mask",
    "commit_adaptive_builds",
    "kernels",
    "vectorized_filter",
    "PhysicalPlanner",
    "QueryPlan",
    "choose_indexed_host",
]
