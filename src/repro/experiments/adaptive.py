"""Adaptive (lazy) indexing convergence — the LIAH-style experiment.

LIAH ("Towards Zero-Overhead Static and Adaptive Indexing in Hadoop") measures how a system
without any upload-time indexes converges to indexed performance when indexes are built
incrementally as a side effect of query execution.  The reproduction runs one single-attribute
query (Syn-Q1c of Table 1) repeatedly against three HAIL deployments of the same dataset:

- **adaptive**: uploaded with *zero* indexes, adaptive indexing on — every round, a fraction of
  the still-unindexed blocks (the ``offer_rate``) pays its scan forward by building a clustered
  index on the filter attribute;
- **indexed**:  uploaded with an upload-time index on the filter attribute — the convergence
  target (classic HAIL, what Figure 7 measures);
- **scan**:     uploaded with zero indexes, adaptivity off — the never-converging baseline.

Expected shape: the adaptive runtime starts *above* the scan baseline (round 0 pays scan plus
build for the offered blocks), then drops monotonically as index coverage grows, and lands
within a few percent of the fully indexed deployment once coverage is complete.  The indexed
and scan deployments are stateless across rounds (the simulation is deterministic), so their
columns are flat reference lines.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.deployments import DatasetSpec, deploy_hail
from repro.experiments.report import FigureResult
from repro.mapreduce.counters import Counters
from repro.workloads.synthetic_queries import SYNTHETIC_FILTER_ATTRIBUTE

#: Columns of the convergence curve (one row per workload round).
_ADAPTIVE_COLUMNS = [
    "round",
    "adaptive_runtime_s",
    "adaptive_rr_ms",
    "indexed_runtime_s",
    "indexed_rr_ms",
    "scan_runtime_s",
    "scan_rr_ms",
    "index_coverage",
    "builds_committed",
    "results_agree",
]

#: Default per-job offer rate: converges in a handful of rounds while still showing a curve
#: (offer rate 1.0 would converge in a single round and hide the amortisation behaviour).
DEFAULT_OFFER_RATE = 0.5


def adaptive_convergence(
    config: Optional[ExperimentConfig] = None,
    rounds: int = 8,
    offer_rate: float = DEFAULT_OFFER_RATE,
    budget_per_job: Optional[int] = None,
    query_name: str = "Syn-Q1c",
) -> FigureResult:
    """Per-round runtimes of a repeated single-attribute workload under adaptive indexing."""
    config = config or ExperimentConfig.small()
    workload = DatasetSpec.by_name("synthetic").workload
    path = workload.path
    query = next(q for q in workload.queries if q.name == query_name)

    scan_config = config.hail_config(splitting=False)
    adaptive_system = deploy_hail(
        config,
        scan_config.with_adaptive(True, offer_rate=offer_rate, budget_per_job=budget_per_job),
    )
    indexed_system = deploy_hail(
        config, config.hail_config((SYNTHETIC_FILTER_ATTRIBUTE,), splitting=False)
    )
    scan_system = deploy_hail(config, scan_config)

    # The indexed and scan deployments carry no state across rounds and the simulation is
    # deterministic, so one run per deployment yields their flat reference lines.
    indexed_result = indexed_system.run_query(query, path)
    scan_result = scan_system.run_query(query, path)
    reference = indexed_result.sorted_records()
    scan_agrees = scan_result.sorted_records() == reference

    result = FigureResult(
        figure="Adaptive convergence",
        description=(
            f"{query.name} repeated {rounds}x; zero upload-time indexes, "
            f"offer rate {offer_rate}, budget "
            f"{'unlimited' if budget_per_job is None else budget_per_job}"
        ),
        columns=list(_ADAPTIVE_COLUMNS),
    )
    for round_number in range(rounds):
        adaptive_result = adaptive_system.run_query(query, path)
        committed = adaptive_result.job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED)
        result.add_row(
            round=round_number,
            adaptive_runtime_s=adaptive_result.runtime_s,
            adaptive_rr_ms=adaptive_result.record_reader_s * 1000.0,
            indexed_runtime_s=indexed_result.runtime_s,
            indexed_rr_ms=indexed_result.record_reader_s * 1000.0,
            scan_runtime_s=scan_result.runtime_s,
            scan_rr_ms=scan_result.record_reader_s * 1000.0,
            index_coverage=adaptive_system.index_coverage(path, SYNTHETIC_FILTER_ATTRIBUTE),
            builds_committed=int(committed),
            results_agree=adaptive_result.sorted_records() == reference and scan_agrees,
        )
    result.notes = (
        "index_coverage/builds_committed are measured after the round's job committed its "
        "builds; the indexed_* and scan_* columns are flat reference lines (those deployments "
        "carry no state across rounds)."
    )
    return result
