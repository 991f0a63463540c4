"""Relational operators on top of the scan engine: group-by, equi-join, ranked top-k.

Each operator compiles to a frozen query object (:class:`GroupByQuery`, :class:`JoinQuery`,
:class:`TopKQuery`) that any system — stock Hadoop, Hadoop++ or HAIL — runs like a scan: the
operator *lowers* the query to the scans it needs plus a finish step over their job results
(:data:`LOWERINGS`), and the system alone runs that, serially or inside an interleaved batch.
The same lowering renders the operator's ``EXPLAIN`` above one plan per scan, from the
decisions it made, so a result's plan is the plans its scans executed under that header.
The operators push work into the layers below instead of post-processing scan output:
aggregation rides the map/reduce shuffle with a map-side combiner, joins pick a shuffle-free
merge strategy when ``Dir_rep`` proves both sides co-partitioned, and top-k terminates early
on zone-range bounds.  All operator output is deterministic (canonical ordering, explicit
tie-breaks) so differential tests can compare systems bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.engine.operators.aggregate import (
    SUPPORTED_FUNCTIONS,
    AggregateSpec,
    GroupByQuery,
    lower_group_by,
)
from repro.engine.operators.join import (
    STRATEGIES,
    JoinQuery,
    choose_strategy,
    co_partitioned,
    lower_join,
)
from repro.engine.operators.topk import TopKQuery, lower_top_k

if TYPE_CHECKING:  # annotations only: repro.systems.base imports the operators
    from repro.systems.base import BaseSystem, QueryResult

#: Any compiled relational-operator query.
OperatorQuery = Union[GroupByQuery, JoinQuery, TopKQuery]


#: The one dispatch from query kind to its :class:`~repro.mapreduce.job.Lowering`,
#: ``(system, query, path) -> Lowering``.  ``BaseSystem`` consults it for every query it runs
#: or explains; a kind that is not listed is a plain scan.
LOWERINGS = {GroupByQuery: lower_group_by, JoinQuery: lower_join, TopKQuery: lower_top_k}

__all__ = [
    "SUPPORTED_FUNCTIONS",
    "STRATEGIES",
    "LOWERINGS",
    "AggregateSpec",
    "GroupByQuery",
    "JoinQuery",
    "TopKQuery",
    "OperatorQuery",
    "choose_strategy",
    "co_partitioned",
    "execute",
]


def execute(system: "BaseSystem", query: OperatorQuery, path: str) -> "QueryResult":
    """Run any compiled query on ``system`` against the dataset at ``path``, in one call."""
    return system.run_query(query, path)

