"""Sessions, lazy datasets, deferred queries, and batched workload execution.

A :class:`Session` owns a deployment — one or more systems (HAIL, Hadoop++, stock Hadoop),
each with its simulated cluster and cost model — and is the stateful client context the
adaptive subsystem was built for: adaptive indexing, the lifecycle manager and the auto-tuner
all learn *across* queries, which a one-shot ``system.run_query`` call pattern cannot
express.  The session therefore:

- routes every query through the owning system's single :class:`~repro.mapreduce.runner.MapReduceRunner`,
  so one session's workload shares one adaptive state (staged builds, LRU statistics, tuner
  ledger) from the first query to the last;
- accumulates the per-job ``ADAPTIVE_*`` MapReduce counters into per-system session totals,
  surfaced by :meth:`Session.stats` together with adaptive replica counts/bytes and the live
  tuner state; and
- executes whole workloads in one call (:meth:`Session.run_batch`), which is how adaptive
  convergence is meant to be driven: on an indexable workload with the knobs on, the last
  query of a batch runs on blocks the first queries paid forward.

:class:`Dataset` is the lazy builder bound to an uploaded path: ``where(...)`` conjoins DSL
expressions, ``select(...)`` sets the projection, and ``collect()`` / ``explain()`` /
``submit()`` compile to the stable :class:`~repro.workloads.query.Query` form and hand it to
the engine.

Sessions are also the tenancy boundary of a shared deployment: :meth:`Session.attach` opens
a sibling session over the *same* systems (one HDFS, one runner, one adaptive tuner) with
isolated per-tenant statistics, and :func:`run_multi_tenant_batch` drains several tenants'
submitted queries through the JobTracker's concurrent scheduler in one interleaved batch —
each tenant's handles resolve as its jobs finish, and the shared tuner sees every tenant's
jobs, so concurrent workloads cooperatively converge the index pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from repro.api.expressions import ColumnExpr, Expr, UnsupportedExpressionError
from repro.api.logical import LogicalAggregate, LogicalJoin, LogicalQuery, LogicalTopK
from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster.costmodel import CostModel, CostParameters
from repro.cluster.failure import FailureEvent
from repro.cluster.hardware import HardwareProfile
from repro.cluster.topology import Cluster
from repro.engine.operators import (  # noqa: F401 - execute_operator is pinned by bench/
    GroupByQuery,
    JoinQuery,
    TopKQuery,
    execute as execute_operator,
)
from repro.hail import HailConfig, HailSystem
from repro.layouts.schema import Schema
from repro.mapreduce.counters import DECLARED as DECLARED_COUNTERS, Counters
from repro.mapreduce.runner import ConcurrentBatchError
from repro.systems.base import BaseSystem, QueryResult, SystemUploadReport
from repro.workloads.query import Query

#: The IR nodes (lowered by ``compile()`` to the compiled forms below).
_LOGICAL_IR = (LogicalQuery, LogicalAggregate, LogicalJoin, LogicalTopK)
#: The compiled forms a system runs: a scan/selection ``Query`` or one relational operator.
_COMPILED = (Query, GroupByQuery, JoinQuery, TopKQuery)

#: Anything the session can execute: a lazy dataset, a deferred handle, the IR, or a
#: compiled form.
Runnable = Union[("Dataset", "QueryHandle") + _LOGICAL_IR + _COMPILED]


#: The operator a builder names when refusing to stack on it (top-k refuses both others).
_STACKED = {LogicalJoin: "join()", LogicalTopK: "order_by()/limit()"}


# --------------------------------------------------------------------------- lazy datasets
@dataclass(frozen=True)
class Dataset:
    """A lazy query builder over one uploaded path.

    Datasets are immutable: every builder call returns a new one, so partial queries can be
    shared and refined without aliasing surprises.  The query is held as IR: a
    :class:`~repro.api.logical.LogicalQuery` scan leaf, or one operator node whose input is
    that leaf; :meth:`logical` names the nodes.  Nothing executes until :meth:`collect`
    (immediate) or :meth:`submit` (deferred, drained by :meth:`Session.run_batch`).
    """

    session: "Session"
    path: str
    _node: Union[_LOGICAL_IR] = LogicalQuery(name="")
    _name: Optional[str] = None

    # ------------------------------------------------------------------ scan builders
    @property
    def _leaf(self) -> LogicalQuery:
        """The scan leaf: the node itself, an operator's ``source`` or a join's ``left``."""
        node = self._node
        return node.left if isinstance(node, LogicalJoin) else getattr(node, "source", node)

    def _scan(self, **changes) -> "Dataset":
        """Replace fields of the scan leaf wherever it sits under the node."""
        leaf, node = replace(self._leaf, **changes), self._node
        if isinstance(node, LogicalQuery):
            return replace(self, _node=leaf)
        side = "left" if isinstance(node, LogicalJoin) else "source"
        return replace(self, _node=replace(node, **{side: leaf}))

    def where(self, expression: Expr) -> "Dataset":
        """Narrow the selection; repeated calls conjoin (``a.where(x).where(y)`` is ``x & y``)."""
        if isinstance(expression, ColumnExpr):
            raise UnsupportedExpressionError(
                "where() got a bare column; compare it first (e.g. col('a') == value)"
            )
        if not isinstance(expression, Expr):
            raise TypeError(f"where() expects a DSL expression, got {expression!r}")
        current = self._leaf.where
        return self._scan(where=expression if current is None else (current & expression))

    def select(self, *attributes: str) -> "Dataset":
        """Project the named attributes, in output order (replaces any earlier projection)."""
        if not attributes:
            raise ValueError("select() needs at least one attribute name")
        return self._scan(select=tuple(attributes))

    def named(self, name: str) -> "Dataset":
        """Set the query name used in figures and reports."""
        return replace(self, _name=name)

    def described(self, description: str) -> "Dataset":
        """Set an explicit figure label (otherwise one is rendered from the compiled query)."""
        return self._scan(description=description)

    def with_selectivity(self, selectivity: float) -> "Dataset":
        """Attach the paper's stated selectivity (reporting only).

        Census keep list (``tests/test_census.py``): user API.
        """
        return self._scan(selectivity=selectivity)

    # ------------------------------------------------------------------ operator builders
    def _operator(self, kind: type, adding: str, **changes) -> "Dataset":
        """Set fields of the ``kind`` operator node, wrapping the scan leaf on first use.

        The engine implements one relational operator per query, so builder ``adding`` is
        refused on a dataset that carries another operator, never silently mis-planned.
        """
        node = self._node
        if isinstance(node, kind):
            return replace(self, _node=replace(node, **changes))
        if isinstance(node, LogicalQuery):
            return replace(self, _node=kind(name="", source=node, **changes))
        label = "join()/group_by()" if kind is LogicalTopK else _STACKED[type(node)]
        raise UnsupportedExpressionError(
            f"{adding}() cannot be combined with {label}: one operator per query"
        )

    def group_by(self, *keys: str) -> "Dataset":
        """Group the output by the named attributes; follow with :meth:`agg`.

        Grouping cannot be combined with :meth:`join`, :meth:`order_by` or :meth:`limit`.
        """
        if not keys:
            raise ValueError("group_by() needs at least one key attribute")
        return self._operator(LogicalAggregate, "group_by", keys=tuple(keys))

    def agg(self, *specs) -> "Dataset":
        """Set the aggregate columns (``"count(*)"``, ``"sum(f2)"``, or ``AggregateSpec``)."""
        if not specs:
            raise ValueError("agg() needs at least one aggregate spec")
        return self._operator(LogicalAggregate, "agg", aggregates=tuple(specs))

    def with_combiner(self, enabled: bool = True) -> "Dataset":
        """Switch the map-side combiner of a grouped aggregation (on by default).

        Results are bit-identical either way; only the shuffled pair volume (visible in the
        ``COMBINE_*``/``SHUFFLE_BYTES_SAVED`` counters) changes — the benchmark's A/B knob.
        Like :meth:`agg`, it makes the dataset a grouping, so it needs :meth:`group_by`.
        """
        return self._operator(LogicalAggregate, "with_combiner", combiner=enabled)

    def join(self, other: "Dataset", on: str, strategy: Optional[str] = None) -> "Dataset":
        """Equi-join with another dataset of the same session on one attribute.

        Each side keeps its own ``where``/``select``; ``strategy`` forces ``"merge"`` or
        ``"hash"`` (``None`` lets the planner pick merge when ``Dir_rep`` proves both sides
        co-partitioned on ``on``).  No further operators can stack on a join.
        """
        if not isinstance(other, Dataset):
            raise TypeError(f"join() expects a Dataset, got {other!r}")
        if other.session is not self.session:
            raise ValueError("join() requires both datasets to belong to the same session")
        for side, dataset in (("left", self), ("right", other)):
            if not isinstance(dataset._node, LogicalQuery):
                raise UnsupportedExpressionError(
                    f"join() {side} side already carries another operator; joins compose "
                    "only with where()/select() per side"
                )
        right = LogicalQuery(name="", where=other._node.where, select=other._node.select)
        node = LogicalJoin("", on, self._node, right, self.path, other.path, strategy)
        return replace(self, _node=node)

    def order_by(self, attribute: str, descending: bool = False) -> "Dataset":
        """Rank the output by one attribute; must be followed by :meth:`limit`."""
        return self._operator(LogicalTopK, "order_by", order_by=attribute, descending=descending)

    def limit(self, k: int) -> "Dataset":
        """Keep the top ``k`` rows of an :meth:`order_by` ranking (``LIMIT k``)."""
        return self._operator(LogicalTopK, "limit", k=k)

    # ------------------------------------------------------------------ lowering
    def logical(self) -> Union[_LOGICAL_IR]:
        """The dataset's query as IR with its nodes named: a scan, or one operator over it.

        Unnamed datasets take the session's next auto-name on every call; the scan leaf
        shares the top node's name and a join's right scan is ``"<name>-right"``.
        """
        name = self._name or self.session._next_query_name(self.path)
        node = self._scan(name=name)._node
        if isinstance(node, LogicalJoin):
            node = replace(node, right=replace(node.right, name=f"{name}-right"))
        return replace(node, name=name)

    def to_query(self) -> Union[_COMPILED]:
        """Compile to the stable form the engine executes (scan or operator query)."""
        return self.logical().compile()

    # ------------------------------------------------------------------ execution
    def collect(
        self, system: Optional[str] = None, failure: Optional[FailureEvent] = None
    ) -> QueryResult:
        """Compile and execute now; returns the engine's full :class:`QueryResult`."""
        return self.session.run(self, system=system, failure=failure)

    def rows(self, system: Optional[str] = None) -> list[tuple]:
        """Convenience: just the result records of :meth:`collect`."""
        return self.collect(system=system).records

    def explain(self, system: Optional[str] = None) -> str:
        """``EXPLAIN``-style rendering of the plan the engine would choose right now.

        Adaptive deployments replan as replicas appear and disappear, so the same dataset can
        explain differently before and after a batch — that is the point.
        """
        return self.session.explain(self, system=system)

    def submit(
        self, system: Optional[str] = None, deadline_s: Optional[float] = None
    ) -> "QueryHandle":
        """Defer execution: enqueue on the session and return a handle.

        The handle resolves when a batch drain (:meth:`Session.run_batch` or
        :func:`run_multi_tenant_batch`) completes its job; batching lets adaptive indexing,
        the lifecycle manager and the auto-tuner work across the whole workload instead of
        one query at a time.  ``deadline_s`` attaches a soft completion deadline for the
        concurrent scheduler (EDF tie-breaks + ``DEADLINE_*`` accounting); it only matters
        on interleaved batches and is ignored wherever jobs run back-to-back.
        """
        return self.session._enqueue(self.to_query(), self.path, system, deadline_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        leaf = self._leaf
        where = leaf.where.describe() if leaf.where is not None else "*"
        return f"Dataset({self.path!r}, where={where}, select={leaf.select})"


# --------------------------------------------------------------------------- deferred queries
@dataclass
class QueryHandle:
    """A query deferred by :meth:`Dataset.submit`; resolves the moment a drain completes it."""

    query: Union[_COMPILED]
    path: str
    system: str
    #: Soft completion deadline on the concurrent batch timeline (``None`` = none).
    deadline_s: Optional[float] = None
    _result: Optional[QueryResult] = None

    @property
    def done(self) -> bool:
        """Has a batch drain (or an explicit ``session.run(handle)``) executed this query?"""
        return self._result is not None

    def result(self) -> QueryResult:
        """The execution result; raises until the owning session ran the batch."""
        if self._result is None:
            raise RuntimeError(
                f"query {self.query.name!r} has not been executed yet; "
                "call session.run_batch() to drain submitted queries"
            )
        return self._result


@dataclass
class BatchResult:
    """Results of one :meth:`Session.run_batch` call, in submission order."""

    results: list[QueryResult] = field(default_factory=list)

    @property
    def runtimes(self) -> list[float]:
        """End-to-end runtime of every query, in submission order (convergence curves)."""
        return [result.runtime_s for result in self.results]

    @property
    def total_runtime_s(self) -> float:
        """Summed end-to-end runtimes of the batch."""
        return sum(self.runtimes)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]


class BatchExecutionError(RuntimeError):
    """A mid-batch failure that *preserves* the work already completed.

    Raised by both batch drains (:meth:`Session.run_batch`, :func:`run_multi_tenant_batch`).
    The drain folds every finished query into its owning session's statistics and resolves
    its handle as it goes, so the partial batch travels on the error instead of being
    dropped: ``partial`` holds the completed results in entry order (submission order, or
    the round-robin merge order of a multi-tenant drain), ``failed_index`` the entry
    position whose execution raised, and ``__cause__`` the original exception.  Unfinished
    handles stay pending, so statistics, handles and ``partial`` always agree.
    """

    def __init__(self, message: str, partial: BatchResult, failed_index: int) -> None:
        super().__init__(message)
        self.partial = partial
        self.failed_index = failed_index


# --------------------------------------------------------------------------- session stats
#: Historical ``SessionStats`` accessor spellings that are not the lower-cased counter name.
STATS_ALIASES = {
    "adaptive_builds_committed": Counters.ADAPTIVE_INDEXES_COMMITTED,
    "placement_rebuilds": Counters.PLACEMENT_REREPLICATED,
    "placement_migrations": Counters.PLACEMENT_MIGRATED,
    "sched_jobs_interleaved": Counters.SCHED_QUEUE_JOBS_INTERLEAVED,
}


@dataclass(frozen=True)
class SessionStats:
    """Per-system session statistics: counters, adaptive footprint, tuner state.

    A snapshot, not a live view — take one before and after a batch to difference them.
    Counter totals accumulate over every query the session ran on the system, including the
    ``ADAPTIVE_*`` counters the lifecycle tuner itself consumes.

    Every counter declared in :data:`repro.mapreduce.counters.DECLARED` answers as an
    attribute under its lower-cased name (``stats.zone_map_pruned_bytes``): an ``int`` for
    unit ``count``, a ``float`` for ``seconds`` and ``bytes``; :data:`STATS_ALIASES` keeps the
    four historical spellings.  ``docs/api.md`` lists them all.
    """

    system: str
    queries_run: int
    total_runtime_s: float
    counters: dict[str, float]
    #: Adaptive (lazily built) replicas per uploaded path; empty for systems without them.
    adaptive_replicas: dict[str, int]
    #: On-disk bytes of those adaptive replicas per path (what eviction budgets against).
    adaptive_bytes: dict[str, int]
    #: Live auto-tuner knobs, when the system runs the feedback controller.
    tuner_offer_rate: Optional[float] = None
    tuner_budget: Optional[int] = None
    #: The tenant this session submits jobs as (``"default"`` unless the session was opened
    #: with a tenant name or via :meth:`Session.attach`).
    tenant: str = "default"

    def counter(self, name: str) -> float:
        """Session total of one MapReduce counter (0 when never incremented)."""
        return self.counters.get(name, 0.0)

    def counter_by_attribute(self, name: str) -> dict[str, float]:
        """Per-attribute slices of one adaptive counter (``name`` is the base counter).

        Census keep list (``tests/test_census.py``): user API.
        """
        from repro.mapreduce.counters import attribute_slices

        return attribute_slices(self.counters, name)

    @property
    def index_local_task_fraction(self) -> float:
        """Fraction of classified launches that were index-local (0.0 without the policy).

        Only populated for sessions run with ``index_aware_scheduling`` on — the scheduler
        classifies launches only when the policy is installed.  Delegates to
        :func:`repro.hail.scheduler.index_local_task_fraction` on the session counter totals.
        """
        from repro.hail.scheduler import index_local_task_fraction

        return index_local_task_fraction(self.counters)

    def __getattr__(self, name: str) -> Union[int, float]:
        """The session total of a declared counter, under its lower-cased name or alias.

        Only reached for names that are neither fields nor methods.  The name is resolved
        against the declaration table *before* ``self`` is touched, so copying or unpickling
        (which probe dunders on a not-yet-initialised instance) cannot recurse.
        """
        counter = STATS_ALIASES.get(name, name.upper() if name == name.lower() else None)
        spec = DECLARED_COUNTERS.get(counter)
        if spec is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return (int if spec.unit == "count" else float)(self.counter(counter))

    def __dir__(self) -> list[str]:
        return [*super().__dir__(), *map(str.lower, DECLARED_COUNTERS), *STATS_ALIASES]


# --------------------------------------------------------------------------- the session
class Session:
    """The client context: a deployment of one or more systems plus per-session state.

    Construct directly from built systems (they keep their own clusters and cost models)::

        session = Session([hail_system, hadoop_system])

    or let :meth:`Session.deploy` build a fresh deployment by system name.  The first system
    is the *default* — the one ``dataset().collect()`` and :meth:`stats` address when no
    ``system=`` is given — unless ``default=`` names another.

    ``tenant`` names the workload owner this session submits jobs as: several sessions can
    :meth:`attach` to one deployment under different tenant names, each with isolated
    counters/statistics, while the concurrent scheduler's admission control, slot quotas and
    fair queueing act on the tenant labels (see :func:`run_multi_tenant_batch`).
    """

    def __init__(
        self,
        systems: Union[BaseSystem, Sequence[BaseSystem]],
        default: Optional[str] = None,
        tenant: str = "default",
    ) -> None:
        if isinstance(systems, BaseSystem):
            systems = [systems]
        systems = list(systems)
        if not systems:
            raise ValueError("a session needs at least one system")
        self._systems: dict[str, BaseSystem] = {}
        for system in systems:
            if system.name in self._systems:
                raise ValueError(f"duplicate system name {system.name!r} in one session")
            self._systems[system.name] = system
        self._default = default if default is not None else systems[0].name
        if self._default not in self._systems:
            raise KeyError(f"default system {self._default!r} is not part of this session")
        if not tenant:
            raise ValueError("tenant must be a non-empty name")
        self.tenant = tenant
        #: Upload reports per path per system, in upload order.
        self.upload_reports: dict[str, dict[str, SystemUploadReport]] = {}
        self._paths: list[str] = []
        self._pending: list[QueryHandle] = []
        self._counters: dict[str, Counters] = {name: Counters() for name in self._systems}
        self._queries_run: dict[str, int] = {name: 0 for name in self._systems}
        self._runtime_s: dict[str, float] = {name: 0.0 for name in self._systems}
        self._query_names = itertools.count(1)

    # ------------------------------------------------------------------ deployment
    @classmethod
    def deploy(
        cls,
        nodes: int = 4,
        systems: Sequence[str] = ("HAIL",),
        hardware: str = "physical",
        index_attributes: Sequence[str] = (),
        hail_config: Optional[HailConfig] = None,
        trojan_attribute: Optional[str] = None,
        replication: int = 3,
        data_scale: float = 1.0,
        default: Optional[str] = None,
        tenant: str = "default",
    ) -> "Session":
        """Build a fresh deployment by system name ("HAIL", "Hadoop++", "Hadoop").

        Every system gets its own simulated cluster (same size and hardware profile) and a
        cost model scaled by ``data_scale``, mirroring how the paper's experiments deploy the
        three systems side by side.  ``replication`` applies to every system (HAIL raises it
        to one replica per index attribute when more are named); ``hail_config`` overrides
        ``index_attributes`` and ``replication`` for full control of the HAIL deployment
        (adaptive knobs, splitting policy, ...).
        """
        profile = HardwareProfile.by_name(hardware)
        built: list[BaseSystem] = []
        for name in systems:
            cluster = Cluster.homogeneous(nodes, profile)
            cost = CostModel(CostParameters(data_scale=data_scale))
            if name == "HAIL":
                config = hail_config
                if config is None:
                    config = HailConfig.for_attributes(
                        tuple(index_attributes),
                        functional_partition_size=1,
                        replication=max(replication, len(index_attributes)),
                    )
                built.append(HailSystem(cluster, config=config, cost=cost))
            elif name == "Hadoop++":
                built.append(
                    HadoopPlusPlusSystem(
                        cluster,
                        trojan_attribute=trojan_attribute,
                        cost=cost,
                        replication=replication,
                        functional_partition_size=1,
                    )
                )
            elif name == "Hadoop":
                built.append(HadoopSystem(cluster, cost=cost, replication=replication))
            else:
                raise KeyError(f"unknown system {name!r}; known: HAIL, Hadoop++, Hadoop")
        return cls(built, default=default, tenant=tenant)

    @classmethod
    def restore(
        cls,
        hail_config: HailConfig,
        nodes: int = 4,
        hardware: str = "physical",
        data_scale: float = 1.0,
        default: Optional[str] = None,
        tenant: str = "default",
    ) -> "Session":
        """Reopen a killed HAIL deployment from its persistence journal.

        ``hail_config`` must carry the ``persistence_dir`` the dead deployment journaled
        into (``HailConfig.with_persistence(...)``); a fresh deployment
        of the same shape is built and every journaled dataset, replica (adaptive index
        pool included), zone-map synopsis, LRU statistic, eviction tombstone and the adaptive
        salt are put back, and the tuner's ledger too when ``hail_config`` auto-tunes, so
        convergence *resumes* — the first query after a restore runs at warm steady-state,
        not cold full-scan (``benchmarks/test_recovery_curve.py`` pins this).  See ``docs/persistence.md`` for
        the walkthrough.
        """
        from repro.persist import restore_system

        if hail_config.persistence_dir is None:
            raise ValueError(
                "Session.restore needs a persistence-enabled HailConfig "
                "(use config.with_persistence(...))"
            )
        session = cls.deploy(
            nodes=nodes,
            systems=("HAIL",),
            hardware=hardware,
            hail_config=hail_config,
            data_scale=data_scale,
            default=default,
            tenant=tenant,
        )
        system = session.system()
        restore_system(system, system.hdfs.persist.load_state())
        # The schema catalog was rebuilt in journal (upload) order; mirror it into the
        # session's path list so stats()/dataset() see the recovered datasets.
        session._paths = list(system._schemas)
        return session

    def checkpoint(self, system: Optional[str] = None) -> None:
        """Write a full capture of one system's durable state into its journal.

        The journal is already kept current by the per-mutation syncs; a checkpoint
        additionally garbage-collects crash-window orphans (see ``docs/persistence.md``)
        and is the natural point-in-time marker before a planned kill.  Raises for systems
        deployed without persistence.
        """
        target = self.system(system)
        backend = target.hdfs.persist
        if backend is None:
            raise RuntimeError(
                f"system {target.name!r} was deployed without persistence; "
                "enable it via HailConfig.with_persistence(...)"
            )
        backend.checkpoint(target)

    def attach(self, tenant: str) -> "Session":
        """Open a sibling session over the **same** deployment under another tenant name.

        The new session shares the system objects — one HDFS, one MapReduce runner, one
        adaptive/lifecycle state per system, and the upload catalog (datasets uploaded
        through either session are visible to both) — but keeps its own counters, runtime
        totals and pending queue, so per-tenant statistics never bleed.  Adaptive builds one
        tenant pays for benefit every attached tenant: that shared-tuner cooperation is the
        multi-tenant premise (see ``docs/scheduling.md``).
        """
        peer = Session(list(self._systems.values()), default=self._default, tenant=tenant)
        # Shared upload catalog: the deployment's datasets, not per-tenant copies.
        peer._paths = self._paths
        peer.upload_reports = self.upload_reports
        return peer

    # ------------------------------------------------------------------ introspection
    @property
    def system_names(self) -> tuple[str, ...]:
        """The session's systems, default first.

        Census keep list (``tests/test_census.py``): user API.
        """
        names = list(self._systems)
        names.remove(self._default)
        return (self._default, *names)

    def system(self, name: Optional[str] = None) -> BaseSystem:
        """Look up a system by name (``None`` addresses the default system)."""
        key = name if name is not None else self._default
        try:
            return self._systems[key]
        except KeyError:
            raise KeyError(
                f"no system {key!r} in this session; have {sorted(self._systems)}"
            ) from None

    @property
    def paths(self) -> tuple[str, ...]:
        """Paths uploaded through this session, in upload order."""
        return tuple(self._paths)

    @property
    def pending(self) -> tuple[QueryHandle, ...]:
        """Submitted-but-unexecuted query handles, in submission order.

        Handles leave the queue the moment they resolve (inside :meth:`run` or a batch
        drain), so a long-lived session does not accumulate executed handles; the ``done``
        filter only guards handles resolved out-of-band (e.g. run explicitly before the
        drain).
        """
        return tuple(handle for handle in self._pending if not handle.done)

    # ------------------------------------------------------------------ data lifecycle
    def upload(
        self,
        path: str,
        records: Sequence[tuple],
        schema: Schema,
        rows_per_block: int = 200,
        systems: Optional[Sequence[str]] = None,
        raw_lines: Optional[Sequence[str]] = None,
    ) -> Dataset:
        """Upload ``records`` under ``path`` into every (selected) system; returns the dataset.

        Per-system :class:`~repro.systems.base.SystemUploadReport` objects land in
        :attr:`upload_reports` keyed by path then system name.
        """
        targets = list(systems) if systems is not None else list(self._systems)
        reports: dict[str, SystemUploadReport] = {}
        for name in targets:
            reports[name] = self.system(name).upload(
                path, records, schema, rows_per_block=rows_per_block, raw_lines=raw_lines
            )
        self.upload_reports[path] = reports
        self._paths.append(path)
        return Dataset(session=self, path=path)

    def dataset(self, path: str) -> Dataset:
        """A lazy :class:`Dataset` over an already-uploaded path.

        The path must be known to at least one of the session's systems (uploads targeted at
        a subset via ``upload(systems=[...])`` count); executing against a system that does
        not hold it still fails at ``collect`` time with a pointed error.
        """
        if not any(self._holds_path(system, path) for system in self._systems.values()):
            raise KeyError(f"unknown dataset {path!r}; upload it first")
        return Dataset(session=self, path=path)

    # ------------------------------------------------------------------ execution
    def run(
        self,
        item: Runnable,
        system: Optional[str] = None,
        path: Optional[str] = None,
        failure: Optional[FailureEvent] = None,
    ) -> QueryResult:
        """Execute one query now and record it in the session statistics.

        ``item`` may be a :class:`Dataset`, a :class:`QueryHandle`, any ``Logical*`` IR node
        (:mod:`repro.api.logical`), or a compiled form — a
        :class:`~repro.workloads.query.Query` or an operator query (``GroupByQuery``,
        ``JoinQuery``, ``TopKQuery``).  IR and compiled forms need ``path`` (or a single
        uploaded path to default to), except a join, which carries both of its paths.
        """
        query, query_path, target_name = self._resolve(item, system, path)
        result = self.system(target_name).run_query(query, query_path, failure=failure)
        self._accept(target_name, result, item)
        return result

    def run_batch(
        self,
        items: Optional[Sequence[Runnable]] = None,
        system: Optional[str] = None,
        path: Optional[str] = None,
    ) -> BatchResult:
        """Execute a whole workload through the owning runners, in order.

        With ``items=None`` the session drains every query submitted via
        :meth:`Dataset.submit` (each on the system it was submitted to).  All queries of a
        batch flow through each system's single MapReduce runner, which is what lets
        adaptive indexing converge *within* the batch: builds committed by query *k* are
        index scans for query *k+1*, the lifecycle manager runs after every job, and the
        auto-tuner's knob updates feed straight into the next query.

        This is the one-session case of the drain :func:`run_multi_tenant_batch` runs for
        several tenants; ``docs/api.md`` (§ Batch drains) holds the shared contract —
        per-system entry order, back-to-back vs. interleaved execution, and the
        :class:`BatchExecutionError` a mid-batch failure surfaces as.
        """
        if items is None:
            items = self.pending
        return BatchResult(results=_drain([(self, item) for item in items], system, path))

    def explain(
        self, item: Runnable, system: Optional[str] = None, path: Optional[str] = None
    ) -> str:
        """``EXPLAIN`` the plan the (default) system would choose for ``item`` right now."""
        query, query_path, target_name = self._resolve(item, system, path)
        return self.system(target_name).explain(query, query_path)

    # ------------------------------------------------------------------ statistics
    def stats(self, system: Optional[str] = None) -> SessionStats:
        """Snapshot this session's accumulated statistics for one system.

        Includes the summed per-job ``ADAPTIVE_*`` counters (builds, build seconds, index
        uses, measured savings, fallback blocks, evictions), the adaptive replica count and
        byte footprint per uploaded path, and — when the system auto-tunes — the feedback
        controller's live offer rate and budget.
        """
        name = system if system is not None else self._default
        target = self.system(name)
        adaptive_replicas: dict[str, int] = {}
        adaptive_bytes: dict[str, int] = {}
        if isinstance(target, HailSystem):
            # Only paths this system actually holds: uploads may target a subset of systems.
            for uploaded in self._paths:
                if not self._holds_path(target, uploaded):
                    continue
                adaptive_replicas[uploaded] = target.adaptive_replica_count(uploaded)
                adaptive_bytes[uploaded] = target.adaptive_replica_bytes(uploaded)
        tuner_offer_rate: Optional[float] = None
        tuner_budget: Optional[int] = None
        tuner = getattr(getattr(target, "lifecycle", None), "tuner", None)
        if tuner is not None:
            tuner_offer_rate = tuner.offer_rate
            tuner_budget = tuner.budget
        return SessionStats(
            system=name,
            queries_run=self._queries_run[name],
            total_runtime_s=self._runtime_s[name],
            counters=self._counters[name].as_dict(),
            adaptive_replicas=adaptive_replicas,
            adaptive_bytes=adaptive_bytes,
            tuner_offer_rate=tuner_offer_rate,
            tuner_budget=tuner_budget,
            tenant=self.tenant,
        )

    # ------------------------------------------------------------------ internals
    @staticmethod
    def _holds_path(system: BaseSystem, path: str) -> bool:
        """Does this system's HDFS deployment hold ``path`` (however it was uploaded)?"""
        return system.hdfs.namenode.file_exists(path)

    def _enqueue(
        self,
        query: Union[_COMPILED],
        path: str,
        system: Optional[str],
        deadline_s: Optional[float] = None,
    ) -> QueryHandle:
        """Register a deferred query for the next :meth:`run_batch` drain."""
        target = system if system is not None else self._default
        self.system(target)  # validate early: a typo should fail at submit, not at drain
        handle = QueryHandle(query=query, path=path, system=target, deadline_s=deadline_s)
        self._pending.append(handle)
        return handle

    def _accept(self, system: str, result: QueryResult, item: Runnable) -> None:
        """Fold one finished query into the statistics; resolve and dequeue its handle."""
        self._queries_run[system] += 1
        self._runtime_s[system] += result.runtime_s
        self._counters[system].merge(result.job.counters)
        if isinstance(item, QueryHandle):
            item._result = result
            try:
                self._pending.remove(item)
            except ValueError:
                pass  # ran ad hoc, never enqueued (e.g. a handle passed to run() twice)

    def _resolve(
        self, item: Runnable, system: Optional[str], path: Optional[str]
    ) -> tuple[Union[_COMPILED], str, str]:
        """Normalize any runnable into ``(compiled query, path, system name)``."""
        if isinstance(item, Dataset):
            return item.to_query(), item.path, system if system is not None else self._default
        if isinstance(item, QueryHandle):
            # An explicit system= wins over the one recorded at submit time.
            return item.query, item.path, system if system is not None else item.system
        if isinstance(item, _LOGICAL_IR):
            item = item.compile()
        target = system if system is not None else self._default
        if isinstance(item, JoinQuery):
            # Joins carry their own paths; the left side anchors the resolution.
            return item, item.left_path, target
        if isinstance(item, _COMPILED):
            return item, self._require_path(path), target
        raise TypeError(
            f"cannot run {item!r}; expected a Dataset, QueryHandle, a Logical* IR node, "
            "a compiled Query, or an operator query (GroupByQuery/JoinQuery/TopKQuery)"
        )

    def _require_path(self, path: Optional[str]) -> str:
        if path is not None:
            return path
        if len(self._paths) == 1:
            return self._paths[0]
        raise ValueError(
            "running a bare Query/LogicalQuery needs path= "
            f"(session has {len(self._paths)} uploaded paths)"
        )

    def _next_query_name(self, path: str) -> str:
        """A stable auto-name for unnamed datasets (``q1@/data/...``, ``q2@...``)."""
        return f"q{next(self._query_names)}@{path}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(systems={list(self._systems)}, default={self._default!r}, "
            f"tenant={self.tenant!r})"
        )


# --------------------------------------------------------------------------- batch drains
def _drain(
    entries: Sequence[tuple[Session, Runnable]],
    system: Optional[str],
    path: Optional[str],
    chaos=None,
) -> list[QueryResult]:
    """The one batch drain: run ``(owning session, item)`` entries, results in entry order.

    Entries are grouped per target system *object* (attached sessions share it, so one
    group = one deployment) and each group goes to :meth:`BaseSystem.run_queries` as one
    batch in entry order, whatever kinds of query it holds — the system alone decides
    back-to-back vs. interleaved.  Every result is accepted by its owning session the
    moment its query completes; any failure surfaces as a :class:`BatchExecutionError` over
    what finished.
    """
    # One row per entry: (owning session, item, compiled query, path, system name).
    jobs = [(session, item, *session._resolve(item, system, path)) for session, item in entries]
    results: list[Optional[QueryResult]] = [None] * len(jobs)
    groups: dict[BaseSystem, list[int]] = {}
    for position, (session, _, _, _, name) in enumerate(jobs):
        groups.setdefault(session.system(name), []).append(position)

    def _accept(position: int, result: QueryResult) -> None:
        session, item, _, _, name = jobs[position]
        session._accept(name, result, item)
        results[position] = result

    for target, batch in groups.items():
        sessions, items, queries, paths, _ = zip(*(jobs[p] for p in batch))
        try:
            target.run_queries(
                list(zip(queries, paths)),
                tenants=[session.tenant for session in sessions],
                chaos=chaos,
                deadlines=[
                    item.deadline_s if isinstance(item, QueryHandle) else None
                    for item in items
                ],
                on_result=lambda index, result: _accept(batch[index], result),
            )
        except Exception as error:
            if isinstance(error, ConcurrentBatchError):
                failed = batch[error.failed_index]
            else:
                failed = next(p for p in batch if results[p] is None)
            completed = [result for result in results if result is not None]
            raise BatchExecutionError(
                f"batch drain failed on item {failed} ({error}); {len(completed)} of "
                f"{len(jobs)} queries completed — see .partial for their results",
                partial=BatchResult(results=completed),
                failed_index=failed,
            ) from error
    return results


def run_multi_tenant_batch(
    sessions: Sequence[Session], system: Optional[str] = None, chaos=None
) -> dict[str, BatchResult]:
    """Drain several tenants' pending queries through one shared deployment, interleaved.

    ``sessions`` are sibling sessions of one deployment (built with :meth:`Session.attach`)
    carrying distinct tenant names; their pending handles are merged round-robin (modelling
    simultaneous arrival) and drained exactly like :meth:`Session.run_batch` drains one
    session's queue (``docs/api.md`` § Batch drains).  The backlog is **one** concurrent
    batch per shared system, so the JobTracker's admission control, slot quotas
    and queue policy arbitrate between the tenants for real; each result lands in its
    *owning* session's statistics (isolation) while the shared tuner observes every
    tenant's jobs (cooperation).  Returns the per-tenant batches, each in its session's
    submission order.  Without concurrency configured the merged backlog runs back-to-back.

    ``chaos`` (:class:`~repro.cluster.failure.ConcurrentChaos`) injects faults — a node
    death, task failures, straggler nodes — into each concurrent batch to exercise the
    hardened scheduler; it requires the deployment to be concurrency-configured.
    """
    sessions = list(sessions)
    tenants = [session.tenant for session in sessions]
    if len(set(tenants)) != len(tenants):
        raise ValueError(f"sessions must carry distinct tenant names, got {tenants}")
    # Round-robin merge: tenant A's first query, tenant B's first, A's second, ... so no
    # tenant's whole backlog is "first" — arrival order is what quotas should arbitrate.
    entries = [
        (session, handle)
        for rank in itertools.zip_longest(*(session.pending for session in sessions))
        for session, handle in zip(sessions, rank)
        if handle is not None
    ]
    results = _drain(entries, system, None, chaos)
    return {
        session.tenant: BatchResult(
            results=[result for (owner, _), result in zip(entries, results) if owner is session]
        )
        for session in sessions
    }
