"""Bob's UserVisits workload (Section 6.2 of the paper).

Bob's five queries filter on three different attributes (visitDate, sourceIP, adRevenue), which
is exactly the situation HAIL's per-replica indexes are designed for: with the default
replication factor of three, HAIL indexes all three attributes — one per replica — while
Hadoop++ can only ever index one of them.

The queries are declared through the typed expression DSL (:mod:`repro.api`) and compiled to
the stable :class:`~repro.query.predicate.Query` form; the explicit ``description`` strings
keep the paper's exact figure labels (auto-rendered labels would carry the same content in a
slightly different spelling).
"""

from __future__ import annotations

from datetime import date

from repro.api.expressions import col
from repro.api.logical import LogicalQuery

#: The per-replica index configuration the paper uses for HAIL in the Bob experiments.
BOB_INDEX_ATTRIBUTES: tuple[str, str, str] = ("visitDate", "sourceIP", "adRevenue")
#: The single attribute Hadoop++ indexes in the Bob experiments (it benefits Q2 and Q3).
BOB_TROJAN_ATTRIBUTE = "sourceIP"

_PROBE_IP = "172.101.11.46"


def bob_logical_queries() -> list[LogicalQuery]:
    """Bob-Q1 .. Bob-Q5 as declarative :class:`LogicalQuery` definitions (the IR form)."""
    return [
        LogicalQuery(
            name="Bob-Q1",
            where=col("visitDate").between(date(1999, 1, 1), date(2000, 1, 1)),
            select=("sourceIP",),
            description=(
                "SELECT sourceIP FROM UserVisits "
                "WHERE visitDate BETWEEN '1999-01-01' AND '2000-01-01'"
            ),
            selectivity=3.1e-2,
        ),
        LogicalQuery(
            name="Bob-Q2",
            where=col("sourceIP") == _PROBE_IP,
            select=("searchWord", "duration", "adRevenue"),
            description=(
                "SELECT searchWord, duration, adRevenue FROM UserVisits "
                f"WHERE sourceIP='{_PROBE_IP}'"
            ),
            selectivity=3.2e-8,
        ),
        LogicalQuery(
            name="Bob-Q3",
            where=(col("sourceIP") == _PROBE_IP) & (col("visitDate") == date(1992, 12, 22)),
            select=("searchWord", "duration", "adRevenue"),
            description=(
                "SELECT searchWord, duration, adRevenue FROM UserVisits "
                f"WHERE sourceIP='{_PROBE_IP}' AND visitDate='1992-12-22'"
            ),
            selectivity=6e-9,
        ),
        LogicalQuery(
            name="Bob-Q4",
            where=col("adRevenue").between(1.0, 10.0),
            select=("searchWord", "duration", "adRevenue"),
            description=(
                "SELECT searchWord, duration, adRevenue FROM UserVisits "
                "WHERE adRevenue>=1 AND adRevenue<=10"
            ),
            selectivity=1.7e-2,
        ),
        LogicalQuery(
            name="Bob-Q5",
            where=col("adRevenue").between(1.0, 100.0),
            select=("searchWord", "duration", "adRevenue"),
            description=(
                "SELECT searchWord, duration, adRevenue FROM UserVisits "
                "WHERE adRevenue>=1 AND adRevenue<=100"
            ),
            selectivity=2.04e-1,
        ),
    ]


def bob_queries() -> list:
    """Bob-Q1 .. Bob-Q5 compiled to the stable :class:`~repro.query.predicate.Query` form."""
    return [logical.compile() for logical in bob_logical_queries()]
