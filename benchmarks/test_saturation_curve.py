"""Saturation benchmark: mixed-tenant throughput/latency vs. the concurrency knob.

Pins the acceptance properties of the concurrent service layer: sweeping
``HailConfig.concurrency.max_concurrent_jobs`` over a saturated two-tenant backlog on one
shared deployment must (a) leave every query's answer bit-identical to the serial baseline,
(b) genuinely interleave both tenants' jobs at every concurrent level, and (c) beat the
serial makespan — interleaved map phases fill the slots a narrow job leaves idle.
"""

from conftest import run_figure

from repro.experiments import saturation


def test_saturation_curve(benchmark, config):
    """Throughput up, makespan down, answers unchanged, both tenants interleaved."""
    result = run_figure(benchmark, saturation.saturation_curve, config)
    rows = result.rows
    assert rows[0]["max_concurrent_jobs"] == 1
    serial = rows[0]
    concurrent_rows = rows[1:]
    assert concurrent_rows

    # Fidelity: interleaving may never change an answer — every sweep point matches the
    # serial baseline per query index, bit for bit.
    for row in rows:
        assert row["results_identical"]

    # The serial baseline by definition interleaves nothing.
    assert serial["interleaved_jobs"] == 0
    assert serial["tenants_interleaved"] == 0

    for row in concurrent_rows:
        # Genuine multi-tenancy: both tenants' jobs strictly overlap other in-flight work.
        assert row["tenants_interleaved"] >= 2
        assert row["interleaved_jobs"] > 0
        # Concurrency wins: higher throughput, shorter makespan, every query done sooner
        # at the tail than the serial pipeline's last query.
        assert row["throughput_qps"] > serial["throughput_qps"]
        assert row["makespan_s"] < serial["makespan_s"]
        assert row["speedup_vs_serial"] > 1.0
        assert row["latency_p99_s"] <= serial["latency_p99_s"]
        assert row["latency_p50_s"] <= row["latency_p99_s"]

    # This assertion is the saturation floor: best concurrent makespan >= 1.5x serial.
    assert max(row["speedup_vs_serial"] for row in rows) >= 1.5
