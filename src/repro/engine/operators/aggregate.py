"""Grouped aggregation pushed into map/reduce with map-side combiners.

The operator lowers a :class:`GroupByQuery` onto the owning system's *existing* scan
machinery: the system builds its normal selection/projection job (index-aware splits, PAX
projection, zone maps — whatever the deployment configures) and runs it like any other; this
module only hands each block's column batch to a regroup that reads the key and aggregate
columns straight from it — a group-key column beside a partial-aggregate column, no row and no
pair built — and installs a merging combiner and a finalizing reducer.  The map-side
combiner (``mapreduce.shuffle.combine_map_output``) is what makes aggregation cheap on the
substrate: one partial pair per (map task, group) crosses the shuffle instead of one pair per
input record, observable via the ``COMBINE_*``/``SHUFFLE_BYTES_SAVED`` counters.

All partials are exact for integer data (``avg`` carries ``(sum, count)``), so a combined and
an uncombined run produce bit-identical results — the associativity property the hypothesis
suite pins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from textwrap import indent
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.layouts.pax import ColumnBatch
from repro.mapreduce.job import Lowering
from repro.query.predicate import Query, render_sql

if TYPE_CHECKING:  # annotations only: repro.systems.base imports the operators
    from repro.systems.base import BaseSystem

#: Aggregate functions the operator supports (the classic SQL five).
SUPPORTED_FUNCTIONS = ("count", "sum", "min", "max", "avg")

_FIRST, _SECOND = itemgetter(0), itemgetter(1)

_SPEC_RE = re.compile(r"^\s*(?P<func>[a-zA-Z]+)\s*\(\s*(?P<attr>\*|[A-Za-z_]\w*)\s*\)\s*$")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column: ``func`` over ``attribute`` (``None`` only for ``count(*)``)."""

    func: str
    attribute: Optional[str] = None

    def __post_init__(self) -> None:
        if self.func not in SUPPORTED_FUNCTIONS:
            raise ValueError(
                f"unsupported aggregate {self.func!r}; supported: {', '.join(SUPPORTED_FUNCTIONS)}"
            )
        if self.attribute is None and self.func != "count":
            raise ValueError(f"{self.func}() needs an attribute; only count(*) may omit it")

    @classmethod
    def parse(cls, text: str) -> "AggregateSpec":
        """Parse the SQL spelling: ``"count(*)"``, ``"sum(f2)"``, ``"avg(adRevenue)"``."""
        match = _SPEC_RE.match(text)
        if match is None:
            raise ValueError(f"cannot parse aggregate {text!r}; expected e.g. 'sum(f2)'")
        attribute: Optional[str] = match.group("attr")
        if attribute == "*":
            attribute = None
        return cls(func=match.group("func").lower(), attribute=attribute)

    def sql(self) -> str:
        """The SQL rendering used in descriptions and ``explain()`` output."""
        return f"{self.func}({self.attribute if self.attribute is not None else '*'})"


@dataclass(frozen=True)
class GroupByQuery:
    """A compiled grouped-aggregation query (``GROUP BY`` + aggregate columns).

    Output rows are ``(*group key values, *aggregate values)`` in declaration order, sorted
    canonically (by ``repr``) so results are deterministic across systems and shuffle
    partitionings.  ``combiner`` switches the map-side combine off for A/B comparison — the
    results are bit-identical either way; only the shuffled pair count (and hence the
    simulated reduce cost) changes.

    Attributes
    ----------
    name:
        Short identifier used in reports.
    keys:
        Grouping attribute names, in output order.
    aggregates:
        Aggregate columns, in output order.
    predicate:
        Optional pre-aggregation selection (pushed into the scan like any query predicate).
    combiner:
        Install the map-side combiner (default on).
    description:
        SQL label; rendered from the compiled form when omitted.
    """

    name: str
    keys: tuple[str, ...]
    aggregates: tuple["AggregateSpec", ...]
    predicate: Optional[Any] = None
    combiner: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.keys:
            raise ValueError("group_by needs at least one key attribute")
        if not self.aggregates:
            raise ValueError("group_by needs at least one aggregate (agg(...))")
        if not self.description:
            columns = list(self.keys) + [spec.sql() for spec in self.aggregates]
            base = render_sql(self.predicate, columns)
            object.__setattr__(
                self, "description", f"{base} GROUP BY {', '.join(self.keys)}"
            )

    def base_query(self) -> Query:
        """The selection/projection scan feeding the aggregation (keys + aggregated columns)."""
        needed = list(self.keys)
        for spec in self.aggregates:
            if spec.attribute is not None and spec.attribute not in needed:
                needed.append(spec.attribute)
        return Query(
            name=f"{self.name}-scan", predicate=self.predicate, projection=tuple(needed)
        )


# --------------------------------------------------------------------------- partials
def _initial_partial(spec: AggregateSpec, value: Any) -> Any:
    """The partial aggregate of a single input value.

    Census keep list (``tests/test_census.py``): ground truth for tests (the per-value form of the
    regroup's partial columns).
    """
    if spec.func == "count":
        return 1
    if spec.func == "avg":
        return (value, 1)
    return value


def _make_regroup(query: GroupByQuery, projection: tuple[str, ...]):
    """``batch -> (group keys, partials)`` for scan column batches laid out as ``projection``.

    One key and one partial per row, in row order, read straight from the batch's columns: the
    key columns are ``zip``-ped into key tuples, and each aggregate contributes one column of
    :func:`_initial_partial` values whose shape is resolved here, once per aggregate, not per
    value.  No row tuple is built.
    """
    key_positions = [projection.index(key) for key in query.keys]
    partial_columns = [
        (spec.func, projection.index(spec.attribute) if spec.attribute is not None else None)
        for spec in query.aggregates
    ]

    def regroup(batch: ColumnBatch) -> tuple[list, list]:
        columns = batch.columns
        partials = [
            repeat(1, batch.size) if func == "count"
            else zip(columns[position], repeat(1)) if func == "avg"
            else columns[position]
            for func, position in partial_columns
        ]
        keys = list(zip(*[columns[position] for position in key_positions]))
        return keys, list(zip(*partials))

    return regroup


def _merge_partials(spec: AggregateSpec, partials: Sequence) -> Any:
    """Merge partial aggregates (associative and commutative — the combiner contract)."""
    if spec.func in ("count", "sum"):
        return sum(partials)
    if spec.func == "min":
        return min(partials)
    if spec.func == "max":
        return max(partials)
    return (sum(map(_FIRST, partials)), sum(map(_SECOND, partials)))


def _finalize(spec: AggregateSpec, partial: Any) -> Any:
    """Turn a merged partial into the aggregate's output value (``avg`` divides here)."""
    if spec.func == "avg":
        total, count = partial
        return total / count
    return partial


def make_combiner(aggregates: tuple[AggregateSpec, ...]):
    """The map-side combiner: merge partials per group, never finalize."""

    getters = [itemgetter(i) for i in range(len(aggregates))]

    def combiner(key, values):
        # One list per aggregate, its partials taken out of the group's values in C.
        columns = [list(map(get, values)) for get in getters]
        return [(key, tuple(map(_merge_partials, aggregates, columns)))]

    return combiner


def make_reducer(aggregates: tuple[AggregateSpec, ...]):
    """The final reducer: merge partials per group (the combiner), then finalize into the
    output row."""

    combine = make_combiner(aggregates)

    def reducer(key, values):
        ((_, merged),) = combine(key, values)
        return [(key, tuple(key) + tuple(map(_finalize, aggregates, merged)))]

    return reducer


# --------------------------------------------------------------------------- lowering
def lower_group_by(system: "BaseSystem", query: GroupByQuery, path: str) -> Lowering:
    """A grouped aggregation as one decorated scan: map-side combine → shuffle → reduce.

    The scan half is the system's own jobconf (map function, input format, annotations), so an
    indexed HAIL deployment aggregates over index-narrowed candidate rows exactly like a
    plain query would; the scan hands its column batches to ``regroup`` instead of zipping
    them into rows, and the decoration adds the combiner and reducer.  The finish step puts the
    groups in canonical order.  ``EXPLAIN`` renders the aggregation above the scan's plan.
    """
    base = query.base_query()
    regroup = _make_regroup(query, base.projection)
    reduce_tasks = max(1, len(system.cluster.alive_nodes))

    def decorate(jobconf) -> None:
        """Turn the system's scan job, whose batches ``regroup`` already maps to a group-key
        column and a partial column, into the aggregation job, in place."""
        jobconf.reducer = make_reducer(query.aggregates)
        if query.combiner:
            jobconf.combiner = make_combiner(query.aggregates)
        jobconf.num_reduce_tasks = reduce_tasks

    def finish(jobs, _scans_s) -> tuple:
        """Canonical output order: group keys sorted by ``repr``, independent of the shuffle's
        hash partitioning, so combined/uncombined and cross-system runs compare bit-identically."""
        (job,) = jobs
        return sorted(job.values, key=repr), job

    def explain(plans) -> str:
        """The aggregation above the scan's plan."""
        header = [
            f"GroupByAggregate {query.name!r}: {query.description}",
            f"  keys: {', '.join(query.keys)}",
            f"  aggregates: {', '.join(spec.sql() for spec in query.aggregates)}",
            f"  map-side combiner: {'on' if query.combiner else 'off'}",
            f"  reduce tasks: {reduce_tasks}",
        ]
        return "\n".join(header + [indent(plans[0].explain(), "  ")])

    return Lowering([(base, path, regroup, decorate)], finish, explain)
