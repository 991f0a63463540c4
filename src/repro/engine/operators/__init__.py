"""Relational operators on top of the scan engine: group-by, equi-join, ranked top-k.

Each operator compiles to a frozen query object (:class:`GroupByQuery`, :class:`JoinQuery`,
:class:`TopKQuery`) that any system — stock Hadoop, Hadoop++ or HAIL — runs like a scan: the
operator *lowers* the query to the scans it needs plus a finish step over their job results
(:data:`LOWERINGS`), and the system alone runs that, serially or inside an interleaved batch.
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
    explain_group_by,
    lower_group_by,
)
from repro.engine.operators.join import (
    STRATEGIES,
    JoinQuery,
    choose_strategy,
    co_partitioned,
    explain_join,
    lower_join,
)
from repro.engine.operators.topk import TopKQuery, explain_top_k, lower_top_k

if TYPE_CHECKING:  # annotations only: repro.systems.base imports the operators
    from repro.systems.base import BaseSystem, QueryResult

#: Any compiled relational-operator query.
OperatorQuery = Union[GroupByQuery, JoinQuery, TopKQuery]


#: The one dispatch from query kind to its :class:`~repro.systems.base.Lowering` and the one
#: to its ``EXPLAIN`` rendering, both ``(system, query, path) -> ...``.  ``BaseSystem`` consults
#: them for every query it runs or explains; a kind that is not listed is a plain scan.
LOWERINGS = {GroupByQuery: lower_group_by, JoinQuery: lower_join, TopKQuery: lower_top_k}
EXPLAINS = {GroupByQuery: explain_group_by, JoinQuery: explain_join, TopKQuery: explain_top_k}

__all__ = [
    "SUPPORTED_FUNCTIONS",
    "STRATEGIES",
    "LOWERINGS",
    "EXPLAINS",
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

