"""Ablation studies for HAIL's individual design choices.

These experiments are not figures of the paper; they isolate individual HAIL design decisions:

- :func:`index_divergence_ablation` — different clustered indexes per replica (HAIL's core idea)
  vs. the same index on every replica (what a per-logical-block scheme like Hadoop++ gives you).
- :func:`pax_conversion_ablation`  — storing HAIL blocks in PAX vs. keeping a row layout.
- :func:`splitting_ablation`       — HailSplitting on vs. off for an index-scan job.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.deployments import build_deployment
from repro.experiments.report import FigureResult
from repro.workloads.bob import BOB_INDEX_ATTRIBUTES


def index_divergence_ablation(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """Per-replica divergent indexes vs. one index repeated on all replicas.

    Expected shape: the divergent configuration answers every Bob query with an index scan,
    while the single-attribute configuration must fall back to scanning for the queries that
    filter on the other two attributes — its total workload runtime is therefore higher.
    """
    config = config or ExperimentConfig.small()
    variants = {
        "HAIL (3 different indexes)": BOB_INDEX_ATTRIBUTES,
        "HAIL-1Idx (same index x3)": (BOB_INDEX_ATTRIBUTES[0],) * 3,
    }
    result = FigureResult(
        figure="Ablation: per-replica index divergence",
        description="Total Bob-workload runtime and index-scan coverage per index configuration",
        columns=["configuration", "total_runtime_s", "index_scan_tasks", "full_scan_tasks"],
    )
    for label, attributes in variants.items():
        deployment = build_deployment(
            config, dataset="uservisits", systems=("HAIL",), index_attributes=attributes,
            splitting=False,
        )
        system = deployment.system("HAIL")
        total = 0.0
        index_scans = 0
        full_scans = 0
        for query in deployment.queries:
            outcome = system.run_query(query, deployment.path)
            total += outcome.runtime_s
            index_scans += int(outcome.job.counters.value("INDEX_SCANS"))
            full_scans += int(outcome.job.counters.value("FULL_SCANS"))
        result.add_row(
            configuration=label,
            total_runtime_s=total,
            index_scan_tasks=index_scans,
            full_scan_tasks=full_scans,
        )
    return result


def pax_conversion_ablation(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """PAX column layout vs. row layout inside HAIL blocks.

    Expected shape: with PAX, a projective query reads only the needed columns; in row layout it
    must read whole rows, so the per-task RecordReader time (and bytes read) grows.
    """
    config = config or ExperimentConfig.small()
    result = FigureResult(
        figure="Ablation: binary PAX conversion",
        description="Record reader cost of a projective query with PAX vs. row layout",
        columns=["layout", "upload_s", "avg_rr_ms", "bytes_read_per_task"],
    )
    for label, convert in (("PAX (paper)", True), ("row layout", False)):
        deployment = build_deployment(config, dataset="synthetic", systems=("HAIL",), splitting=False)
        system = deployment.system("HAIL")
        if not convert:
            # Flip the stored blocks to row layout after the fact (the ablation switch).
            for block_id in system.hdfs.namenode.file_blocks(deployment.path):
                for datanode_id in system.hdfs.namenode.block_datanodes(block_id):
                    system.hdfs.read_replica(block_id, datanode_id).payload.pax_layout = False
        query = deployment.queries[2]  # Syn-Q1c: selectivity 0.10, single projected attribute
        outcome = system.run_query(query, deployment.path)
        result.add_row(
            layout=label,
            upload_s=deployment.upload_reports["HAIL"].total_s,
            avg_rr_ms=outcome.record_reader_s * 1000.0,
            bytes_read_per_task=outcome.job.counters.value("BYTES_READ")
            / max(1, outcome.job.num_map_tasks),
        )
    return result


def splitting_ablation(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """HailSplitting on vs. off for one index-scan query (Bob-Q1)."""
    config = config or ExperimentConfig.small()
    result = FigureResult(
        figure="Ablation: HailSplitting",
        description="End-to-end runtime and number of map tasks for Bob-Q1",
        columns=["splitting", "runtime_s", "map_tasks", "overhead_s"],
    )
    for label, enabled in (("enabled", True), ("disabled", False)):
        deployment = build_deployment(
            config, dataset="uservisits", systems=("HAIL",), splitting=enabled
        )
        outcome = deployment.system("HAIL").run_query(deployment.queries[0], deployment.path)
        result.add_row(
            splitting=label,
            runtime_s=outcome.runtime_s,
            map_tasks=outcome.job.num_map_tasks,
            overhead_s=outcome.overhead_s,
        )
    return result
