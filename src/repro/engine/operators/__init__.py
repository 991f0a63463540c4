"""Relational operators on top of the scan engine: group-by, equi-join, ranked top-k.

Each operator compiles to a frozen query object (:class:`GroupByQuery`, :class:`JoinQuery`,
:class:`TopKQuery`) that any system — stock Hadoop, Hadoop++ or HAIL — can execute through
the shared :func:`execute`/:func:`explain_operator` dispatch.  The operators push work into
the layers below instead of post-processing scan output: aggregation rides the map/reduce
shuffle with a map-side combiner, joins pick a shuffle-free merge strategy when ``Dir_rep``
proves both sides co-partitioned, and top-k terminates early on zone-range bounds.  All
operator output is deterministic (canonical ordering, explicit tie-breaks) so differential
tests can compare systems bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.engine.operators.aggregate import (
    SUPPORTED_FUNCTIONS,
    AggregateSpec,
    GroupByQuery,
    execute_group_by,
    explain_group_by,
)
from repro.engine.operators.join import (
    STRATEGIES,
    JoinQuery,
    choose_strategy,
    co_partitioned,
    execute_join,
    explain_join,
)
from repro.engine.operators.topk import TopKQuery, execute_top_k, explain_top_k

if TYPE_CHECKING:  # only for annotations: systems import the engine back
    from repro.systems.base import BaseSystem, QueryResult

#: Any compiled relational-operator query the dispatch functions accept.
OperatorQuery = Union[GroupByQuery, JoinQuery, TopKQuery]

__all__ = [
    "SUPPORTED_FUNCTIONS",
    "STRATEGIES",
    "AggregateSpec",
    "GroupByQuery",
    "JoinQuery",
    "TopKQuery",
    "OperatorQuery",
    "choose_strategy",
    "co_partitioned",
    "execute",
    "execute_group_by",
    "execute_join",
    "execute_top_k",
    "explain_operator",
    "explain_group_by",
    "explain_join",
    "explain_top_k",
]


def execute(system: "BaseSystem", query: OperatorQuery, path: str) -> "QueryResult":
    """Run any relational-operator query on ``system`` against the dataset at ``path``."""
    if isinstance(query, GroupByQuery):
        return execute_group_by(system, query, path)
    if isinstance(query, JoinQuery):
        return execute_join(system, query, path)
    if isinstance(query, TopKQuery):
        return execute_top_k(system, query, path)
    raise TypeError(f"not an operator query: {query!r}")


def explain_operator(system: "BaseSystem", query: OperatorQuery, path: str) -> str:
    """``EXPLAIN`` rendering of any relational-operator query without executing it."""
    if isinstance(query, GroupByQuery):
        return explain_group_by(system, query, path)
    if isinstance(query, JoinQuery):
        return explain_join(system, query, path)
    if isinstance(query, TopKQuery):
        return explain_top_k(system, query, path)
    raise TypeError(f"not an operator query: {query!r}")
