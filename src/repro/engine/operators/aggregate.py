"""Grouped aggregation pushed into map/reduce with map-side combiners.

The operator lowers a :class:`GroupByQuery` onto the owning system's *existing* scan
machinery: the system builds its normal selection/projection job (index-aware splits, PAX
projection, zone maps — whatever the deployment configures) and runs it like any other; this
module only hands the scan's rows to a regroup that emits ``(group key, partial aggregate)``
pairs and installs a merging combiner and a finalizing reducer.  The map-side
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
from textwrap import indent
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # only for annotations: systems and workloads import the engine back
    from repro.systems.base import BaseSystem, Lowering
    from repro.workloads.query import Query

#: Aggregate functions the operator supports (the classic SQL five).
SUPPORTED_FUNCTIONS = ("count", "sum", "min", "max", "avg")

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
        from repro.workloads.query import render_sql  # lazy: workloads imports us back

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

    def base_query(self) -> "Query":
        """The selection/projection scan feeding the aggregation (keys + aggregated columns)."""
        from repro.workloads.query import Query  # lazy: workloads imports us back

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
    """``rows -> [(group key, partials), ...]`` for scan rows laid out as ``projection``.

    One pair per row, in row order, built by the column: the rows are transposed once, the
    key columns are ``zip``-ped back into key tuples, and each aggregate contributes one
    column of :func:`_initial_partial` values whose shape is resolved here, once per
    aggregate, not per value.
    """
    key_positions = [projection.index(key) for key in query.keys]
    partial_columns = [
        (spec.func, projection.index(spec.attribute) if spec.attribute is not None else None)
        for spec in query.aggregates
    ]

    def regroup(rows: list[tuple]) -> list[tuple]:
        if not rows:
            return []
        columns = list(zip(*rows))
        partials = [
            repeat(1) if func == "count"
            else zip(columns[position], repeat(1)) if func == "avg"
            else columns[position]
            for func, position in partial_columns
        ]
        keys = zip(*[columns[position] for position in key_positions])
        return list(zip(keys, zip(*partials)))

    return regroup


def _merge_partials(spec: AggregateSpec, partials: list) -> Any:
    """Merge partial aggregates (associative and commutative — the combiner contract)."""
    if spec.func == "count":
        return sum(partials)
    if spec.func == "sum":
        return sum(partials)
    if spec.func == "min":
        return min(partials)
    if spec.func == "max":
        return max(partials)
    total = sum(part[0] for part in partials)
    count = sum(part[1] for part in partials)
    return (total, count)


def _finalize(spec: AggregateSpec, partial: Any) -> Any:
    """Turn a merged partial into the aggregate's output value (``avg`` divides here)."""
    if spec.func == "avg":
        total, count = partial
        return total / count
    return partial


def make_combiner(aggregates: tuple[AggregateSpec, ...]):
    """The map-side combiner: merge partials per group, never finalize."""

    def combiner(key, values):
        merged = tuple(
            _merge_partials(spec, [value[i] for value in values])
            for i, spec in enumerate(aggregates)
        )
        return [(key, merged)]

    return combiner


def make_reducer(aggregates: tuple[AggregateSpec, ...]):
    """The final reducer: merge partials per group, then finalize into the output row."""

    def reducer(key, values):
        merged = [
            _merge_partials(spec, [value[i] for value in values])
            for i, spec in enumerate(aggregates)
        ]
        finalized = tuple(_finalize(spec, part) for spec, part in zip(aggregates, merged))
        return [(key, tuple(key) + finalized)]

    return reducer


# --------------------------------------------------------------------------- lowering
def lower_group_by(system: "BaseSystem", query: GroupByQuery, path: str) -> "Lowering":
    """A grouped aggregation as one decorated scan: map-side combine → shuffle → reduce.

    The scan half is the system's own jobconf (map function, input format, annotations), so an
    indexed HAIL deployment aggregates over index-narrowed candidate rows exactly like a
    plain query would; the scan hands its rows to ``regroup`` instead of pairing them, and
    the decoration adds the combiner and reducer.  The finish step puts the groups in
    canonical order.
    """
    from repro.systems.base import Lowering

    base = query.base_query()
    regroup = _make_regroup(query, base.projection)

    def decorate(jobconf) -> None:
        """Turn the system's scan job, whose rows ``regroup`` already maps to ``(group key,
        partial)`` pairs, into the aggregation job, in place."""
        jobconf.reducer = make_reducer(query.aggregates)
        if query.combiner:
            jobconf.combiner = make_combiner(query.aggregates)
        jobconf.num_reduce_tasks = max(1, len(system.cluster.alive_nodes))

    def finish(jobs, _scans_s) -> tuple:
        """Canonical output order: group keys sorted by ``repr``, independent of the shuffle's
        hash partitioning, so combined/uncombined and cross-system runs compare bit-identically."""
        (job,) = jobs
        return sorted(job.records, key=repr), job

    return Lowering([(base, path, regroup, decorate)], finish)


def explain_group_by(system: "BaseSystem", query: GroupByQuery, path: str) -> str:
    """``EXPLAIN`` rendering: the aggregation operator on top of the scan's physical plan."""
    base = query.base_query()
    header = [
        f"GroupByAggregate {query.name!r}: {query.description}",
        f"  keys: {', '.join(query.keys)}",
        f"  aggregates: {', '.join(spec.sql() for spec in query.aggregates)}",
        f"  map-side combiner: {'on' if query.combiner else 'off'}",
        f"  reduce tasks: {max(1, len(system.cluster.alive_nodes))}",
    ]
    return "\n".join(header + [indent(system.plan_query(base, path).explain(), "  ")])
