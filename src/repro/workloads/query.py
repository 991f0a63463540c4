"""Query specification shared by all three systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.hail.predicate import Comparison, Operator, Predicate


@dataclass(frozen=True)
class Query:
    """One selection/projection query of a workload.

    This is the *compiled*, stable form every system executes (``system.run_query``); the
    declarative layer (:mod:`repro.api`) produces it from DSL expressions, and hand-built
    instances remain fully supported.

    Attributes
    ----------
    name:
        Short identifier used in figures (``"Bob-Q1"``, ``"Syn-Q2c"``).
    predicate:
        The selection predicate (``None`` means a pure scan/projection job).
    projection:
        Projected attribute names in output order (``None`` projects every attribute).
    description:
        The SQL rendering of the query as printed in the paper.  When omitted, one is
        rendered from the compiled predicate and projection (:func:`render_sql`) so figure
        labels cannot drift from what actually runs; an explicit description always wins.
    selectivity:
        The paper's stated selectivity (used for reporting; the functional selectivity on the
        generated sample data may differ, especially for the needle-in-a-haystack queries).
    """

    name: str
    predicate: Optional[Predicate]
    projection: Optional[tuple[str, ...]]
    description: str = ""
    selectivity: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.description:
            object.__setattr__(self, "description", render_sql(self.predicate, self.projection))

    def filter_attributes(self, unique: bool = False) -> tuple[str, ...]:
        """Names (or ``@position`` strings) the predicate filters on, in clause order.

        This is a planning input, not a display helper: the physical planner tries these
        attributes **in order** when picking the replica whose clustered index to use, so
        predicate clause order doubles as the attribute preference order.  Queries compiled by
        :mod:`repro.api` get a deterministic, selectivity-ranked order from the normalizer;
        hand-built predicates should put the most selective (or most likely indexed) clause
        first.

        With ``unique=False`` (default) duplicated attributes are kept as written — the raw
        clause order.  ``unique=True`` drops repeats while preserving first-occurrence order,
        which is what consumers that treat the result as a preference list want (the same
        semantics as :meth:`repro.hail.predicate.Predicate.attributes`, without needing a
        schema).
        """
        if self.predicate is None:
            return ()
        names: list[str] = []
        for clause in self.predicate.clauses:
            attribute = clause.attribute
            name = attribute if isinstance(attribute, str) else f"@{attribute}"
            if unique and name in names:
                continue
            names.append(name)
        return tuple(names)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.name}: {self.description or self.predicate}"


# ----------------------------------------------------------------------- SQL rendering
def render_sql(predicate: Optional[Predicate], projection: Optional[Sequence[str]]) -> str:
    """Render the SQL form of a compiled selection/projection (the auto figure label).

    The dataset path is not part of a :class:`Query`, so there is no ``FROM`` clause; the
    rendering covers exactly what the engine executes — projection and predicate — which is
    the part a drifting hand-written label would misstate.
    """
    columns = ", ".join(projection) if projection else "*"
    if predicate is None:
        return f"SELECT {columns}"
    where = " AND ".join(_clause_sql(clause) for clause in predicate.clauses)
    return f"SELECT {columns} WHERE {where}"


def _clause_sql(clause: Comparison) -> str:
    attribute = clause.attribute
    name = attribute if isinstance(attribute, str) else f"@{attribute}"
    if clause.op is Operator.BETWEEN:
        low, high = clause.operands
        return f"{name} BETWEEN {_sql_literal(low)} AND {_sql_literal(high)}"
    return f"{name} {clause.op.value} {_sql_literal(clause.operands[0])}"


def _sql_literal(value: Any) -> str:
    """Numbers render bare; everything else (strings, dates) single-quoted, SQL style, with
    each ``'`` inside doubled so the label stays one literal."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "'" + str(value).replace("'", "''") + "'"
    return str(value)
