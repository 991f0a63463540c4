"""Chaos benchmark: the concurrent batch under stragglers, node death, and preemption.

Pins the acceptance properties of the hardened concurrent scheduler: on a saturated
two-tenant backlog, (a) every fault scenario answers bit-identically to the failure-free
run — faults move work on the timeline, never across answers; (b) speculation beats the
speculation-off straggler makespan by at least 1.3x; (c) p99 latency
under an injected mid-batch node death stays within 2x the failure-free p99; and
(d) preemption fires at least once while every tenant's peak running attempts stay
inside the slot quota.  The assertions below are the floors.
"""

from conftest import run_figure

from repro.experiments import saturation


def test_chaos_curve(benchmark, config):
    """Speculation pays, node death is contained, preemption respects quotas."""
    result = run_figure(benchmark, saturation.chaos_curve, config)
    rows = {row["scenario"]: row for row in result.rows}
    assert set(rows) == {
        "failure_free",
        "straggler",
        "straggler_speculation",
        "node_death",
        "preemption",
    }
    failure_free = rows["failure_free"]

    # Fidelity: no fault scenario may change a single answer.
    for row in result.rows:
        assert row["results_identical"]

    # The per-tenant slot quota holds in every scenario, preemption included.
    for row in result.rows:
        assert row["quota_respected"]
        assert row["peak_running_per_tenant"] <= row["slot_quota"]

    # The straggler node genuinely hurts without speculation...
    assert rows["straggler"]["makespan_s"] > failure_free["makespan_s"]
    assert rows["straggler"]["spec_launched"] == 0
    # ...and speculation claws the makespan back past the 1.3x floor.
    speculation = rows["straggler_speculation"]
    assert speculation["spec_launched"] > 0
    assert speculation["spec_won"] > 0
    assert rows["straggler"]["makespan_s"] / speculation["makespan_s"] >= 1.3

    # Node death reschedules lost attempts and keeps the tail contained.
    node_death = rows["node_death"]
    assert node_death["rescheduled"] > 0
    assert node_death["latency_p99_s"] <= 2.0 * failure_free["latency_p99_s"]

    # Weighted fair sharing with preemption on actually revokes running slots.
    assert rows["preemption"]["preempt_kills"] > 0
