"""Query workloads of the paper's evaluation.

- :func:`bob_queries` — Bob's five UserVisits queries (Section 6.2), filtering on visitDate,
  sourceIP and adRevenue.
- :func:`synthetic_queries` — the six Synthetic queries of Table 1, varying selectivity and the
  number of projected attributes while always filtering on the same attribute.
"""

from repro.workloads.bob import bob_logical_queries, bob_queries, BOB_INDEX_ATTRIBUTES
from repro.workloads.synthetic_queries import (
    synthetic_logical_queries,
    synthetic_queries,
    SYNTHETIC_FILTER_ATTRIBUTE,
)
from repro.workloads.workload import Workload, bob_workload, synthetic_workload

__all__ = [
    "bob_queries",
    "bob_logical_queries",
    "BOB_INDEX_ATTRIBUTES",
    "synthetic_queries",
    "synthetic_logical_queries",
    "SYNTHETIC_FILTER_ATTRIBUTE",
    "Workload",
    "bob_workload",
    "synthetic_workload",
]
