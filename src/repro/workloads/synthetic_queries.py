"""The Synthetic query workload (Table 1 of the paper).

All six queries filter on the *same* attribute (``f1``), so HAIL cannot benefit from having
different indexes on different replicas — the point of this workload is to isolate the effect of
selectivity (0.10 vs 0.01) and projectivity (19 / 9 / 1 attributes).

Queries are declared through the typed expression DSL (:mod:`repro.api`); the explicit
``description`` strings keep the paper's figure labels verbatim.
"""

from __future__ import annotations

from repro.api.expressions import col
from repro.api.logical import LogicalQuery
from repro.datagen.synthetic import NUM_ATTRIBUTES, VALUE_RANGE, SYNTHETIC_SCHEMA

#: The attribute every Synthetic query filters on.
SYNTHETIC_FILTER_ATTRIBUTE = "f1"

#: (suffix, selectivity, number of projected attributes) per Table 1.
_TABLE_1: tuple[tuple[str, float, int], ...] = (
    ("Q1a", 0.10, 19),
    ("Q1b", 0.10, 9),
    ("Q1c", 0.10, 1),
    ("Q2a", 0.01, 19),
    ("Q2b", 0.01, 9),
    ("Q2c", 0.01, 1),
)


def synthetic_logical_queries() -> list[LogicalQuery]:
    """Syn-Q1a .. Syn-Q2c as declarative :class:`LogicalQuery` definitions (the IR form)."""
    queries = []
    all_attributes = SYNTHETIC_SCHEMA.field_names
    for suffix, selectivity, projected in _TABLE_1:
        bound = int(round(selectivity * VALUE_RANGE))
        projection = tuple(all_attributes[:projected])
        queries.append(
            LogicalQuery(
                name=f"Syn-{suffix}",
                where=col(SYNTHETIC_FILTER_ATTRIBUTE) < bound,
                select=projection,
                description=(
                    f"SELECT {', '.join(projection) if projected < NUM_ATTRIBUTES else '*'} "
                    f"FROM Synthetic WHERE {SYNTHETIC_FILTER_ATTRIBUTE} < {bound}"
                ),
                selectivity=selectivity,
            )
        )
    return queries


def synthetic_queries() -> list:
    """Syn-Q1a .. Syn-Q2c compiled to range predicates realising Table 1's selectivities."""
    return [logical.compile() for logical in synthetic_logical_queries()]
