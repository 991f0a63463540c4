"""Recovery benchmark: what the durable persistence journal buys after a kill.

Pins the acceptance properties of :mod:`repro.persist` end to end: warm a persistent
deployment until the adaptive index pool converges, kill it, restore from the SQLite
journal into a brand-new deployment, and compare against an honest persistence-off cold
restart.  The restore must be *exact* — same learned index pool, same runtime, same
answers, bit for bit — and the time to first answer must beat the cold restart by 2x;
the assertions below are the floor.
"""

from conftest import run_figure

from repro.experiments import recovery


def test_recovery_curve(benchmark, config):
    """Restore is bit-identical to the warm steady state and ≥2x a cold restart."""
    result = run_figure(benchmark, recovery.recovery_curve, config)
    rows = result.rows
    warm_rows = [row for row in rows if row["phase"] == "warm"]
    steady = warm_rows[-1]
    restored = result.row_for("phase", "restored")
    cold = result.row_for("phase", "cold-restart")

    # Fidelity: every phase answers the probe identically — restore that changes an
    # answer is corruption, and so is a cold restart that does.
    for row in rows:
        assert row["results_identical"]

    # Convergence happened during the warm phase and the journal preserved all of it:
    # the adaptive-replica pool and the zone-map synopses survive the kill exactly.
    assert steady["adaptive_replicas"] > 0
    assert restored["adaptive_replicas"] == steady["adaptive_replicas"]
    assert restored["zone_synopses"] == steady["zone_synopses"]

    # The restored probe costs exactly the warm steady state — not "about the same",
    # bit-identical: the journal reproduced every replica's bytes and every knob.
    assert restored["runtime_s"] == steady["runtime_s"]

    # The cold control re-learns from scratch: its first probe is the un-indexed scan
    # (same cost as the warm deployment's own first query) plus the re-ingest.
    assert cold["runtime_s"] > restored["runtime_s"]
    assert cold["restart_ingest_s"] > 0.0
    assert restored["restart_ingest_s"] == 0.0

    # This assertion is the recovery floor: time to first answer >= 2x a cold restart.
    time_to_first_answer = cold["restart_ingest_s"] + cold["runtime_s"]
    assert time_to_first_answer / restored["runtime_s"] >= 2.0
