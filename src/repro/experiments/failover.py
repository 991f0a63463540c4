"""Fault-tolerance experiment: Figure 8.

Section 6.4.3 kills one random node after 50% of job progress (expiry interval 30 seconds on
jobs of roughly 600–1,100 seconds) and reports the relative slowdown for stock Hadoop, HAIL
(three different per-replica indexes) and HAIL-1Idx (the same index on every replica).

Expected shape: HAIL's slowdown is comparable to Hadoop's (failover is preserved), and
HAIL-1Idx's slowdown is smaller because re-executed map tasks can still run an index scan on the
surviving replicas, whereas plain HAIL may have lost the only replica with the matching index
for some blocks and falls back to scanning.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.failure import FailureInjector
from repro.experiments.config import ExperimentConfig
from repro.experiments.deployments import build_deployment
from repro.experiments.report import FigureResult
from repro.workloads.bob import BOB_INDEX_ATTRIBUTES

#: The paper's expiry interval (30 s) relative to its ~1,000 s job runtimes.
EXPIRY_FRACTION_OF_RUNTIME = 0.03


def fig8(config: Optional[ExperimentConfig] = None, query_index: int = 0) -> FigureResult:
    """Figure 8: job slowdown under a single node failure at 50% progress.

    ``query_index`` selects which of Bob's queries is used (the paper uses one representative
    query).  The expiry interval is scaled to the same fraction of the baseline job runtime as
    in the paper (30 s on ~1,000 s jobs), so the slowdown percentages stay comparable even
    though the miniature jobs are much shorter.
    """
    config = config or ExperimentConfig.small()

    systems = {
        "Hadoop": build_deployment(config, dataset="uservisits", systems=("Hadoop",)),
        "HAIL": build_deployment(config, dataset="uservisits", systems=("HAIL",), splitting=False),
        "HAIL-1Idx": build_deployment(
            config,
            dataset="uservisits",
            systems=("HAIL",),
            splitting=False,
            index_attributes=(BOB_INDEX_ATTRIBUTES[0],) * 3,
        ),
    }

    result = FigureResult(
        figure="Figure 8",
        description="Fault tolerance: runtime without/with a node failure at 50% progress",
        columns=[
            "system",
            "baseline_s",
            "with_failure_s",
            "slowdown_pct",
            "rescheduled_tasks",
            "results_agree",
        ],
    )

    for label, deployment in systems.items():
        system_name = "Hadoop" if label == "Hadoop" else "HAIL"
        system = deployment.system(system_name)
        query = deployment.queries[query_index]

        baseline = system.run_query(query, deployment.path)
        expiry = max(0.5, EXPIRY_FRACTION_OF_RUNTIME * baseline.runtime_s)
        injector = FailureInjector(system.cluster, seed=config.seed)
        failure = injector.random_node_failure(at_progress=0.5, expiry_interval_s=expiry)
        failed = system.run_query(query, deployment.path, failure=failure)
        system.cluster.revive_all()

        slowdown = 100.0 * (failed.runtime_s - baseline.runtime_s) / baseline.runtime_s
        result.add_row(
            system=label,
            baseline_s=baseline.runtime_s,
            with_failure_s=failed.runtime_s,
            slowdown_pct=slowdown,
            rescheduled_tasks=failed.job.rescheduled_tasks,
            results_agree=failed.sorted_records() == baseline.sorted_records(),
        )
    result.notes = (
        "slowdown_pct follows the paper's definition (Tf - Tb) / Tb * 100; the expiry interval is "
        f"{EXPIRY_FRACTION_OF_RUNTIME:.0%} of the baseline runtime, mirroring 30 s on ~1,000 s jobs."
    )
    return result
