"""Ablation benchmarks for HAIL's individual design choices, each against HAIL without it."""

from dataclasses import replace

from repro.experiments.deployments import build_deployment
from repro.hail.scheduler import check_dir_rep_consistency
from repro.workloads.bob import BOB_INDEX_ATTRIBUTES


def _hail(config, dataset="uservisits", **knobs):
    """One HAIL deployment of ``dataset``: its system and uploaded path."""
    deployment = build_deployment(config, dataset=dataset, systems=("HAIL",), **knobs)
    return deployment, deployment.system("HAIL")


def test_ablation_index_divergence(config):
    """Different clustered indexes per replica beat repeating the same index on every replica:
    the divergent configuration answers the whole Bob workload with index scans."""
    runs = {}
    for label, attributes in (
        ("divergent", BOB_INDEX_ATTRIBUTES), ("single", (BOB_INDEX_ATTRIBUTES[0],) * 3)
    ):
        deployment, system = _hail(config, index_attributes=attributes, splitting=False)
        runs[label] = [system.run_query(query, deployment.path) for query in deployment.queries]
    divergent, single = runs["divergent"], runs["single"]
    assert [r.sorted_records() for r in divergent] == [r.sorted_records() for r in single]
    assert sum(r.job.counters.value("FULL_SCANS") for r in divergent) == 0
    assert sum(r.job.counters.value("FULL_SCANS") for r in single) > 0
    assert sum(r.runtime_s for r in divergent) < sum(r.runtime_s for r in single)


def test_ablation_pax_conversion(config):
    """PAX lets a projective index scan skip unneeded columns; row layout reads whole rows."""
    pax_deployment, pax = _hail(config, dataset="synthetic", splitting=False)
    row_deployment, row = _hail(
        config, dataset="synthetic", hail_config=replace(pax.config, convert_to_pax=False)
    )
    query = pax_deployment.queries[2]  # Syn-Q1c: selectivity 0.10, one projected attribute
    bytes_per_task = []
    for system, path in ((pax, pax_deployment.path), (row, row_deployment.path)):
        assert check_dir_rep_consistency(system.hdfs, path) == []
        job = system.run_query(query, path).job
        bytes_per_task.append(job.counters.value("BYTES_READ") / job.num_map_tasks)
    pax_bytes, row_bytes = bytes_per_task
    assert pax_bytes < row_bytes


def test_ablation_hail_splitting(config):
    """HailSplitting removes most of the per-task scheduling overhead of short index-scan jobs."""
    config = config.with_(blocks_per_node=16)
    runs = {}
    for enabled in (True, False):
        deployment, system = _hail(config, splitting=enabled)
        runs[enabled] = system.run_query(deployment.queries[0], deployment.path)
    enabled, disabled = runs[True], runs[False]
    assert enabled.sorted_records() == disabled.sorted_records()
    assert enabled.job.num_map_tasks < disabled.job.num_map_tasks
    assert enabled.runtime_s < 0.6 * disabled.runtime_s
    assert enabled.overhead_s < disabled.overhead_s
