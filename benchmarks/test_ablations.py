"""Ablation benchmarks for HAIL's individual design choices."""

from conftest import run_figure

from repro.experiments import ablations


def test_ablation_index_divergence(benchmark, config):
    """Different clustered indexes per replica beat repeating the same index on every replica:
    the divergent configuration answers the whole Bob workload with index scans."""
    result = run_figure(benchmark, ablations.index_divergence_ablation, config)
    divergent = result.row_for("configuration", "HAIL (3 different indexes)")
    single = result.row_for("configuration", "HAIL-1Idx (same index x3)")
    assert divergent["full_scan_tasks"] == 0
    assert single["full_scan_tasks"] > 0
    assert divergent["total_runtime_s"] < single["total_runtime_s"]


def test_ablation_pax_conversion(benchmark, config):
    """PAX lets a projective index scan skip unneeded columns; row layout reads whole rows."""
    result = run_figure(benchmark, ablations.pax_conversion_ablation, config)
    pax = result.row_for("layout", "PAX (paper)")
    row = result.row_for("layout", "row layout")
    assert pax["bytes_read_per_task"] < row["bytes_read_per_task"]


def test_ablation_hail_splitting(benchmark, config):
    """HailSplitting removes most of the per-task scheduling overhead of short index-scan jobs."""
    result = run_figure(
        benchmark, ablations.splitting_ablation, config.with_(blocks_per_node=16)
    )
    enabled = result.row_for("splitting", "enabled")
    disabled = result.row_for("splitting", "disabled")
    assert enabled["map_tasks"] < disabled["map_tasks"]
    assert enabled["runtime_s"] < 0.6 * disabled["runtime_s"]
    assert enabled["overhead_s"] < disabled["overhead_s"]
