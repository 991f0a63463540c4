"""The unified query-execution engine.

One place for the skip-or-scan decision all three systems (Hadoop, Hadoop++, HAIL) used to make
privately inside their record readers:

- :mod:`repro.engine.access_path` — :class:`AccessPath` and the per-block :class:`BlockPlan`;
- :mod:`repro.engine.planner`     — :class:`PhysicalPlanner` producing inspectable
  :class:`QueryPlan` objects from the namenode's ``Dir_rep`` (with ``explain()``);
- :mod:`repro.engine.executor`    — :class:`VectorizedExecutor` evaluating predicates
  column-at-a-time over PAX partitions and charging the simulated RecordReader cost;
- :mod:`repro.engine.kernels`     — the columnar filter kernels the executor dispatches to:
  a pure-Python reference backend and an optional numpy fast path (``set_backend``) that
  runs only on windows wide enough for it to win;
- :mod:`repro.engine.adaptive`    — LIAH-style adaptive indexing: full scans stage indexed
  replicas as a by-product (:class:`PendingIndexBuild`), which HAIL's input format registers
  failure-safely after the map phase (:func:`commit_adaptive_builds`);
- :mod:`repro.engine.lifecycle`   — adaptive-index lifecycle management: one post-job pass
  of :class:`AdaptiveLifecycleManager` runs the :class:`AdaptiveTuner` feedback controller
  that replaces the static offer-rate/budget knobs, disk-pressure LRU eviction
  (:func:`evict_under_pressure`) and the placement balancer, and reports every replica it
  evicted, downgraded, rebuilt or migrated as one :class:`LifecycleAction`;
- :mod:`repro.engine.operators`   — relational operators on top of the scan engine: grouped
  aggregation with map-side combiners, co-partitioned merge / shuffle hash equi-joins, and
  ranked top-k with zone-range early termination.

Record readers are thin shells over the planner and ``executor.execute()``.  HAIL plans each
block once: its input format's split phase runs ``planner.plan_query()`` and its readers
execute that plan (``planner.for_execution()`` copies a block's plan and adds the execution's
adaptive marks).  A block is re-planned (``planner.plan_block()``) only when the split did
not pin it, when its pinned host died, or when its pinned replica's ``Dir_rep`` entry changed
since; stock Hadoop's and Hadoop++'s readers plan every block.  The query is bound once per
job, too: the plan carries a ``BoundQuery`` (the ``@HailQuery`` bound to the file's schema:
predicate, projection and the column indexes every block reads and reconstructs), and the
reader hands that bound query to ``executor.execute()`` — per block, only per-block work
remains (the index lookup, the qualifying partitions, the payload's own column sizes).  ``explain()`` renders the same
split-phase plan, and every :class:`~repro.systems.base.QueryResult` carries the
:class:`QueryPlan` that was executed.
"""

from repro.engine.access_path import AccessPath, BlockPlan
from repro.engine.adaptive import (
    AdaptiveCommitReport,
    AdaptiveJobContext,
    PendingIndexBuild,
    commit_adaptive_builds,
)
from repro.engine.lifecycle import (
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
    vectorized_filter,
)
from repro.engine.operators import (
    AggregateSpec,
    GroupByQuery,
    JoinQuery,
    OperatorQuery,
    TopKQuery,
)
from repro.engine.planner import PhysicalPlanner, QueryPlan

__all__ = [
    "AggregateSpec",
    "GroupByQuery",
    "JoinQuery",
    "OperatorQuery",
    "TopKQuery",
    "AccessPath",
    "AdaptiveCommitReport",
    "AdaptiveJobContext",
    "AdaptiveLifecycleManager",
    "AdaptiveTuner",
    "JobObservation",
    "LifecycleAction",
    "LifecycleReport",
    "evict_under_pressure",
    "BlockPlan",
    "BlockScanResult",
    "PendingIndexBuild",
    "TextScanResult",
    "VectorizedExecutor",
    "commit_adaptive_builds",
    "kernels",
    "vectorized_filter",
    "PhysicalPlanner",
    "QueryPlan",
]
