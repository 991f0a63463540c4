"""Chaos benchmark: the concurrent batch under stragglers, node death, and preemption.

Five scenarios drain the same two-tenant backlog, each on a fresh deployment under a
per-tenant slot quota of :data:`QUOTA` (of 8 slots):

- ``failure_free``: the reference answers, latencies, and makespan;
- ``straggler``: node :data:`STRAGGLER_NODE` runs every attempt :data:`STRAGGLER_FACTOR`x
  slower, with speculation off, so the tail attempt dominates;
- ``straggler_speculation``: the same straggler with speculation on;
- ``node_death``: node :data:`DEATH_NODE` dies at :data:`KILL_FRACTION` of the failure-free
  makespan, and its lost attempts reschedule on surviving replicas;
- ``preemption``: no faults, but uneven tenant weights with preemption on.

The floors: (a) every scenario answers bit-identically to ``failure_free`` — faults move work
on the timeline, never across answers; (b) speculation beats the speculation-off straggler
makespan by at least 1.3x; (c) p99 latency under the node death stays within 2x the
failure-free p99; and (d) preemption fires at least once while every tenant's peak running
attempts stay inside the slot quota.
"""

from conftest import BACKLOG_ATTRIBUTES, TENANTS, drain_backlog, percentile

from repro.cluster.failure import ConcurrentChaos, FailureEvent
from repro.hail.config import HailConfig
from repro.mapreduce.counters import Counters

#: Backlog size (an even split across the tenants) and the per-tenant running-attempt cap.
NUM_QUERIES, QUOTA = 16, 6

#: The node the straggler scenarios slow down and the factor they slow it by.
STRAGGLER_NODE, STRAGGLER_FACTOR = 2, 16.0

#: The node ``node_death`` kills, its heartbeat expiry, and when it strikes (a fraction of
#: the failure-free makespan).
DEATH_NODE, EXPIRY_S, KILL_FRACTION = 1, 5.0, 0.4


def _peak_overlap(results) -> int:
    """Peak number of simultaneously running accepted attempts across ``results``.

    Sweep-line over the accepted attempts' ``[start_s, finish_s)`` windows; closing an
    interval sorts before opening one at the same instant so back-to-back attempts on the
    same slot do not double-count.  Launch gating bounds the *full* per-tenant peak (killed
    attempts included) by the same quota, so the accepted-attempt peak is a sound audit.
    """
    events = sorted(
        (edge, delta)
        for result in results
        for attempt in result.job.task_results
        for edge, delta in ((attempt.start_s, 1), (attempt.finish_s, -1))
    )
    peak = current = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def _total(results, counter) -> int:
    return sum(int(result.job.counters.value(counter)) for result in results)


def _makespan(results) -> float:
    return max(result.runtime_s for result in results)


def _p99(results) -> float:
    return percentile([result.runtime_s for result in results], 0.99)


def test_chaos_curve(config):
    """Speculation pays, node death is contained, preemption respects quotas."""
    base = HailConfig.for_attributes(
        BACKLOG_ATTRIBUTES, functional_partition_size=1
    ).with_concurrency(max_jobs=4, tenant_slot_quota=QUOTA)
    straggler = ConcurrentChaos(slow_nodes={STRAGGLER_NODE: STRAGGLER_FACTOR})
    answers = {}

    def run(name, hail_config, chaos=None):
        results, _ = drain_backlog(config, hail_config, NUM_QUERIES, chaos)
        answers[name] = [result.sorted_records() for result in results]
        # Fidelity: no fault scenario may change a single answer.
        assert answers[name] == answers["failure_free"]
        # The per-tenant slot quota holds in every scenario, preemption included.
        peaks = [_peak_overlap(results[tenant :: len(TENANTS)]) for tenant in range(len(TENANTS))]
        assert max(peaks) <= QUOTA
        return results

    failure_free = run("failure_free", base)
    slow = run("straggler", base, straggler)
    speculation = run(
        "straggler_speculation", base.with_concurrency(speculative_execution=True), straggler
    )
    node_death = run(
        "node_death",
        base,
        ConcurrentChaos(
            node_failure=FailureEvent(
                node_id=DEATH_NODE, at_progress=KILL_FRACTION, expiry_interval_s=EXPIRY_S
            ),
            kill_time_s=KILL_FRACTION * _makespan(failure_free),
        ),
    )
    preemption = run(
        "preemption",
        base.with_concurrency(
            max_jobs=2, preemption=True, tenant_weights={TENANTS[0]: 2.0, TENANTS[1]: 1.0}
        ),
    )
    assert set(answers) == {
        "failure_free", "straggler", "straggler_speculation", "node_death", "preemption",
    }

    # The straggler node genuinely hurts without speculation...
    assert _makespan(slow) > _makespan(failure_free)
    assert _total(slow, Counters.SPEC_ATTEMPTS_LAUNCHED) == 0
    # ...and speculation claws the makespan back past the 1.3x floor.
    assert _total(speculation, Counters.SPEC_ATTEMPTS_LAUNCHED) > 0
    assert _total(speculation, Counters.SPEC_ATTEMPTS_WON) > 0
    assert _makespan(slow) / _makespan(speculation) >= 1.3

    # Node death reschedules lost attempts and keeps the tail contained.
    assert sum(result.job.rescheduled_tasks for result in node_death) > 0
    assert _p99(node_death) <= 2.0 * _p99(failure_free)

    # Weighted fair sharing with preemption on actually revokes running slots.
    assert _total(preemption, Counters.PREEMPT_ATTEMPTS_KILLED) > 0
