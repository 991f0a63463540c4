"""Reproduction of "Only Aggressive Elephants are Fast Elephants" (HAIL, VLDB 2012).

The package is organised as a stack of subsystems, mirroring the paper:

- :mod:`repro.cluster`    -- cluster hardware profiles, cost model and simulated clock.
- :mod:`repro.layouts`    -- record schemas and physical layouts (text row, PAX).
- :mod:`repro.hdfs`       -- a functional HDFS substrate (namenode, datanodes, upload pipeline).
- :mod:`repro.mapreduce`  -- a functional Hadoop MapReduce substrate (splits, scheduling, tasks).
- :mod:`repro.engine`     -- the unified query-execution engine: access-path planner
  (``QueryPlan`` with ``explain()``) and vectorized PAX executor shared by all systems.
- :mod:`repro.hail`       -- the paper's contribution: per-replica clustered indexing (HAIL).
- :mod:`repro.baselines`  -- stock Hadoop and Hadoop++ (trojan index) baselines.
- :mod:`repro.datagen`    -- UserVisits and Synthetic dataset generators.
- :mod:`repro.workloads`  -- Bob's query workload and the Synthetic query workload.
- :mod:`repro.api`        -- the declarative client layer: :class:`Session`, lazy
  :class:`Dataset`, the typed expression DSL (``col``), and batched workload execution.
- :mod:`repro.experiments` -- harnesses regenerating every table and figure of the paper.

The names re-exported here are the supported top-level surface; ``tools/lint_api.py`` pins
them (and ``repro.api``'s) against a checked-in manifest so accidental breaking changes fail
CI.

Quickstart
----------

>>> from datetime import date
>>> from repro import Session, col
>>> from repro.datagen import UserVisitsGenerator
>>> session = Session.deploy(nodes=4, index_attributes=["visitDate", "sourceIP", "adRevenue"])
>>> generator = UserVisitsGenerator(seed=7)
>>> visits = session.upload("/logs/uservisits", generator.generate(2000), generator.schema)
>>> result = (
...     visits.where(col("visitDate").between(date(1999, 1, 1), date(2000, 1, 1)))
...     .select("sourceIP")
...     .collect()
... )
>>> len(result.records) > 0
True
"""

from repro._version import __version__
from repro.api import (
    BatchExecutionError,
    BatchResult,
    Dataset,
    LogicalQuery,
    QueryHandle,
    Session,
    SessionStats,
    UnsupportedExpressionError,
    col,
    run_multi_tenant_batch,
)
from repro.query.predicate import Query

__all__ = [
    "__version__",
    "BatchExecutionError",
    "BatchResult",
    "Dataset",
    "LogicalQuery",
    "Query",
    "QueryHandle",
    "Session",
    "SessionStats",
    "UnsupportedExpressionError",
    "col",
    "run_multi_tenant_batch",
]
