"""The declarative client API: sessions, lazy datasets, and a typed expression DSL.

This package is the surface users program against; the rest of the repository — systems,
engine, MapReduce substrate — is the machinery it compiles to.  The paper's promise is that
users keep writing plain jobs while the system transparently picks indexed replicas; this
layer extends the promise to query *construction*: nobody should hand-assemble
:class:`~repro.query.predicate.Predicate` clauses or hand-order conjunctions to please the
planner.

- :mod:`repro.api.expressions` — the typed expression DSL: ``col("visitDate").between(a, b)``,
  comparison operators, ``&``/``|``/``~`` composition, and direct row evaluation (the
  reference semantics the compiler is tested against);
- :mod:`repro.api.logical` — the :class:`LogicalQuery` IR and the normalizer that compiles
  expression trees into the engine's :class:`~repro.query.predicate.Query` (flattening
  conjunctions, merging per-attribute ranges, ordering clauses by estimated selectivity),
  plus the relational-operator IR nodes (:class:`LogicalAggregate`, :class:`LogicalJoin`,
  :class:`LogicalTopK`) lowering ``group_by``/``join``/``order_by``+``limit`` trees to the
  engine's operator queries — inexpressible combinations raise
  :class:`UnsupportedExpressionError`, never a wrong plan;
- :mod:`repro.api.session` — :class:`Session` (owns cluster + systems + cost model),
  :class:`Dataset` (lazy ``where``/``select`` builder with ``collect``/``explain``/``submit``),
  batched workload execution (:meth:`Session.run_batch`, concurrent when the deployment
  configures ``max_concurrent_jobs``), multi-tenant drains over one shared deployment
  (:meth:`Session.attach` + :func:`run_multi_tenant_batch`), partial-result-preserving
  failures (:class:`BatchExecutionError`) and per-session adaptive statistics
  (:meth:`Session.stats`).

The compiled :class:`~repro.query.predicate.Query` and ``system.run_query(query, path)``
remain the stable low-level form — everything this package produces can be inspected as, and
mixed with, hand-built queries.
"""

from repro.api.expressions import (
    ColumnExpr,
    ComparisonExpr,
    Expr,
    UnsupportedExpressionError,
    col,
)
from repro.api.logical import (
    LogicalAggregate,
    LogicalJoin,
    LogicalQuery,
    LogicalTopK,
    estimated_selectivity_rank,
    normalize,
)
from repro.api.session import (
    BatchExecutionError,
    BatchResult,
    Dataset,
    QueryHandle,
    Session,
    SessionStats,
    run_multi_tenant_batch,
)
from repro.engine.operators import AggregateSpec, GroupByQuery, JoinQuery, TopKQuery

__all__ = [
    "AggregateSpec",
    "BatchExecutionError",
    "BatchResult",
    "ColumnExpr",
    "ComparisonExpr",
    "Dataset",
    "Expr",
    "GroupByQuery",
    "JoinQuery",
    "LogicalAggregate",
    "LogicalJoin",
    "LogicalQuery",
    "LogicalTopK",
    "QueryHandle",
    "Session",
    "SessionStats",
    "TopKQuery",
    "UnsupportedExpressionError",
    "col",
    "estimated_selectivity_rank",
    "normalize",
    "run_multi_tenant_batch",
]
