"""HailSplitting experiments: Figure 9.

Section 6.5 re-runs both query workloads with the HailSplitting policy enabled: instead of one
map task per block, HAIL creates a handful of splits per datanode (as many as there are map
slots), each covering all blocks whose matching-index replica lives on that datanode.  The
number of map tasks collapses (3,200 to 20 in the paper), the per-task scheduling overhead
almost disappears, and end-to-end runtimes drop by one to two orders of magnitude.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.deployments import SYSTEM_NAMES, build_deployment
from repro.experiments.report import FigureResult

_COLUMNS = [
    "query",
    "hadoop_runtime_s",
    "hadoopplusplus_runtime_s",
    "hail_runtime_s",
    "hadoop_map_tasks",
    "hail_map_tasks",
    "results_agree",
]


def fig9(config: Optional[ExperimentConfig] = None) -> dict[str, FigureResult]:
    """Figures 9(a)-(c): end-to-end runtimes with HailSplitting enabled.

    Returns the Bob sub-figure (a), the Synthetic sub-figure (b) and the total-workload
    sub-figure (c).  Expected shape: HAIL's runtimes collapse to a small fraction of Hadoop's
    and Hadoop++'s because the number of map tasks (and with it the scheduling overhead)
    shrinks dramatically.
    """
    config = config or ExperimentConfig.small()
    bob = _splitting_experiment(config, "uservisits", "Figure 9(a)", "Bob's queries with HailSplitting")
    synthetic = _splitting_experiment(
        config, "synthetic", "Figure 9(b)", "Synthetic queries with HailSplitting"
    )
    total = FigureResult(
        figure="Figure 9(c)",
        description="Total workload runtime [s] (sum over all queries of the workload)",
        columns=["workload", "hadoop_s", "hadoopplusplus_s", "hail_s"],
    )
    for label, sub in (("Bob", bob), ("Synthetic", synthetic)):
        total.add_row(
            workload=label,
            hadoop_s=sum(sub.column("hadoop_runtime_s")),
            hadoopplusplus_s=sum(sub.column("hadoopplusplus_runtime_s")),
            hail_s=sum(sub.column("hail_runtime_s")),
        )
    return {"a": bob, "b": synthetic, "c": total}


def _splitting_experiment(
    config: ExperimentConfig, dataset: str, figure: str, description: str
) -> FigureResult:
    deployment = build_deployment(config, dataset=dataset, systems=SYSTEM_NAMES, splitting=True)
    result = FigureResult(figure=figure, description=description, columns=list(_COLUMNS))
    for query in deployment.queries:
        outcomes = {
            name: deployment.system(name).run_query(query, deployment.path)
            for name in SYSTEM_NAMES
        }
        reference = outcomes["Hadoop"].sorted_records()
        agree = all(outcomes[name].sorted_records() == reference for name in SYSTEM_NAMES)
        result.add_row(
            query=query.name,
            hadoop_runtime_s=outcomes["Hadoop"].runtime_s,
            hadoopplusplus_runtime_s=outcomes["Hadoop++"].runtime_s,
            hail_runtime_s=outcomes["HAIL"].runtime_s,
            hadoop_map_tasks=outcomes["Hadoop"].job.num_map_tasks,
            hail_map_tasks=outcomes["HAIL"].job.num_map_tasks,
            results_agree=agree,
        )
    result.notes = (
        "HailSplitting reduces hail_map_tasks far below hadoop_map_tasks, which removes most of "
        "the per-task scheduling overhead."
    )
    return result
