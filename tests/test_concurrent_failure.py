"""Figure 8's fault scenarios replayed on the *concurrent* scheduler path.

The serial failure experiments (straggler nodes, mid-job node death) pin HAIL's behaviour
one job at a time; this module pins the same physics inside an interleaved multi-tenant
batch, where a fault's blast radius crosses job and tenant boundaries:

- a straggler node slows every attempt launched on it — speculation must cut the tail by
  racing backups on idle slots, with exactly one accepted attempt per task and not one
  counter double-counted by the discarded loser;
- a node death mid-interleave revokes every attempt on the dead node across *all* in-flight
  jobs, requeues them after the expiry interval within the owning tenant's quota, and a
  revoked racer with a surviving rival completes without rescheduling at all;
- deadlines admit earliest-deadline-first and settle honest ``deadline_met`` verdicts;
- preemption revokes slots from a tenant that expanded past its weighted entitlement,
  bounded per job, without ever losing an answer.

Every scenario must answer bit-identically to the serial no-fault baseline — faults move
work on the timeline, never across answers — and leave no orphaned slot time: the batch
always terminates with every task covered by exactly one accepted attempt.
"""

from __future__ import annotations

import pytest

from repro.api import Session, col, run_multi_tenant_batch
from repro.cluster.failure import ConcurrentChaos, FailureEvent, TaskFailureSpec
from repro.datagen.synthetic import VALUE_RANGE, SyntheticGenerator
from repro.hail.config import HailConfig
from repro.hdfs import DataFile, HdfsClient, StandardUploadPipeline
from repro.mapreduce import Counters, JobConf, TextInputFormat
from repro.mapreduce.job_tracker import (
    MAX_PREEMPTIONS_PER_JOB,
    ConcurrencyPolicy,
    ConcurrentJob,
    JobTracker,
)
from repro.mapreduce.task import MapTask


@pytest.fixture
def loaded_hdfs(hdfs, cost_model, simple_schema, simple_records):
    pipeline = StandardUploadPipeline(hdfs, cost_model)
    client = HdfsClient(hdfs, cost_model, pipeline, client_node=0)
    client.upload(
        DataFile("/data/simple", simple_schema, list(simple_records)), rows_per_block=10
    )
    return hdfs


def _scan_job(name: str) -> JobConf:
    def mapper(key, line):
        return [(line.split("|")[1], 1)]

    return JobConf(
        name=name, input_path="/data/simple", mapper=mapper, input_format=TextInputFormat()
    )


def _make_job(hdfs, cost, name: str, tenant: str, **kwargs) -> ConcurrentJob:
    conf = _scan_job(name)
    splits = conf.input_format.get_splits(hdfs, conf, cost)
    tasks = [MapTask(i, split, conf) for i, split in enumerate(splits)]
    return ConcurrentJob(tasks=tasks, counters=Counters(), tenant=tenant, **kwargs)


def _sorted_output(outcome) -> list:
    return sorted(
        pair for attempt in outcome.scheduled for pair in attempt.result.output
    )


def _serial_reference(loaded_hdfs, cost_model, count: int) -> list:
    """Per-job answers of the no-fault serial baseline (run before any node dies)."""
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    return [
        _sorted_output(
            tracker.run_map_phase(
                _make_job(loaded_hdfs, cost_model, f"ref{i}", "t").tasks, Counters()
            )
        )
        for i in range(count)
    ]


def _assert_exactly_one_accepted_attempt_per_task(jobs, outcomes) -> None:
    """No orphans, no double commits: each task has exactly one surviving attempt."""
    for job, outcome in zip(jobs, outcomes):
        accepted = sorted(a.task.task_id for a in outcome.outcome.scheduled)
        assert accepted == sorted(t.task_id for t in job.tasks)


def _assert_launch_audit(jobs, outcomes) -> None:
    """Every launch is an accepted attempt, a spec discard, a kill, or a reschedule."""
    for job, outcome in zip(jobs, outcomes):
        assert job.counters.value(Counters.LAUNCHED_MAP_TASKS) == (
            len(outcome.outcome.scheduled)
            + job.counters.value(Counters.SPEC_ATTEMPTS_DISCARDED)
            + job.counters.value(Counters.PREEMPT_ATTEMPTS_KILLED)
            + job.counters.value(Counters.RESCHEDULED_MAP_TASKS)
        )


def _peak_concurrency(outcomes, tenant: str) -> int:
    events = []
    for job in outcomes:
        if job.tenant != tenant:
            continue
        for attempt in job.outcome.scheduled:
            events.append((attempt.start_s, 1))
            events.append((attempt.finish_s, -1))
    peak = running = 0
    for _, delta in sorted(events, key=lambda event: (event[0], event[1])):
        running += delta
        peak = max(peak, running)
    return peak


# ------------------------------------------------------------------------- stragglers
def test_speculation_cuts_straggler_tail_with_identical_answers(loaded_hdfs, cost_model):
    """Backups race the slow node's attempts; answers and per-task coverage are exact."""
    serial = _serial_reference(loaded_hdfs, cost_model, 4)
    chaos = ConcurrentChaos(slow_nodes={1: 12.0})

    def run(speculation: bool):
        tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
        jobs = [
            _make_job(loaded_hdfs, cost_model, f"j{i}", tenant)
            for i, tenant in enumerate(["alice", "bob", "alice", "bob"])
        ]
        policy = ConcurrencyPolicy(
            max_concurrent_jobs=4, speculative_execution=speculation
        )
        return jobs, tracker.run_concurrent_map_phases(jobs, policy, chaos=chaos)

    slow_jobs, slow = run(speculation=False)
    spec_jobs, spec = run(speculation=True)

    for jobs, outcomes in ((slow_jobs, slow), (spec_jobs, spec)):
        assert [_sorted_output(o.outcome) for o in outcomes] == serial
        _assert_exactly_one_accepted_attempt_per_task(jobs, outcomes)
        _assert_launch_audit(jobs, outcomes)

    # Speculation engaged and strictly improved the batch makespan.
    launched = sum(j.counters.value(Counters.SPEC_ATTEMPTS_LAUNCHED) for j in spec_jobs)
    discarded = sum(
        j.counters.value(Counters.SPEC_ATTEMPTS_DISCARDED) for j in spec_jobs
    )
    won = sum(j.counters.value(Counters.SPEC_ATTEMPTS_WON) for j in spec_jobs)
    assert launched > 0
    # Each race kills exactly one of the pair: one discard per backup launched.
    assert discarded == launched
    assert 0 < won <= launched
    assert sum(
        j.counters.value(Counters.SPEC_WASTED_SECONDS) for j in spec_jobs
    ) > 0
    assert max(o.finish_s for o in spec) < max(o.finish_s for o in slow)
    # Speculation-off ran no backups and wasted nothing.
    assert all(
        j.counters.value(Counters.SPEC_ATTEMPTS_LAUNCHED) == 0 for j in slow_jobs
    )


# ------------------------------------------------------------------------- node death
def test_node_death_mid_interleave_reschedules_within_quota(loaded_hdfs, cost_model):
    """A mid-batch node death loses attempts of several jobs; all recover, quota holds."""
    serial = _serial_reference(loaded_hdfs, cost_model, 4)

    # Dry run to place the kill mid-interleave (the timeline is deterministic).
    dry_tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    dry_jobs = [
        _make_job(loaded_hdfs, cost_model, f"d{i}", tenant)
        for i, tenant in enumerate(["alice", "bob", "alice", "bob"])
    ]
    policy = ConcurrencyPolicy(max_concurrent_jobs=4, tenant_slot_quota=3)
    dry = dry_tracker.run_concurrent_map_phases(dry_jobs, policy)
    kill_time = 0.5 * max(o.finish_s for o in dry)

    chaos = ConcurrentChaos(
        node_failure=FailureEvent(node_id=1, at_progress=0.5, expiry_interval_s=5.0),
        kill_time_s=kill_time,
    )
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    jobs = [
        _make_job(loaded_hdfs, cost_model, f"j{i}", tenant)
        for i, tenant in enumerate(["alice", "bob", "alice", "bob"])
    ]
    try:
        outcomes = tracker.run_concurrent_map_phases(jobs, policy, chaos=chaos)
    finally:
        loaded_hdfs.cluster.node(1).revive()

    assert [_sorted_output(o.outcome) for o in outcomes] == serial
    _assert_exactly_one_accepted_attempt_per_task(jobs, outcomes)
    _assert_launch_audit(jobs, outcomes)

    rescheduled = sum(j.counters.value(Counters.RESCHEDULED_MAP_TASKS) for j in jobs)
    assert rescheduled > 0
    assert all(o.outcome.failure_node == 1 for o in outcomes)
    # No accepted attempt survives on the dead node past the kill instant...
    for outcome in outcomes:
        for attempt in outcome.outcome.scheduled:
            if attempt.node_id == 1:
                assert attempt.finish_s <= kill_time
    # ...requeued work waits out the heartbeat expiry...
    replacement_starts = [
        attempt.start_s
        for outcome in outcomes
        for attempt in outcome.outcome.scheduled
        if attempt.attempt > 1
    ]
    assert replacement_starts
    assert min(replacement_starts) >= kill_time + 5.0
    # ...and rescheduling never burst a tenant past its slot quota.
    for tenant in ("alice", "bob"):
        assert _peak_concurrency(outcomes, tenant) <= 3


def test_task_failure_retry_ladder_inside_batch(loaded_hdfs, cost_model):
    """A doomed attempt fails at its natural finish and the retry answers identically."""
    serial = _serial_reference(loaded_hdfs, cost_model, 2)
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    jobs = [
        _make_job(loaded_hdfs, cost_model, f"j{i}", tenant)
        for i, tenant in enumerate(["alice", "bob"])
    ]
    chaos = ConcurrentChaos(task_failures=(TaskFailureSpec(job_index=0, task_id=0, attempts=2),))
    outcomes = tracker.run_concurrent_map_phases(
        jobs, ConcurrencyPolicy(max_concurrent_jobs=2), chaos=chaos
    )
    assert [_sorted_output(o.outcome) for o in outcomes] == serial
    _assert_exactly_one_accepted_attempt_per_task(jobs, outcomes)
    _assert_launch_audit(jobs, outcomes)
    assert jobs[0].counters.value(Counters.RESCHEDULED_MAP_TASKS) == 2
    assert jobs[1].counters.value(Counters.RESCHEDULED_MAP_TASKS) == 0
    surviving = next(
        a for a in outcomes[0].outcome.scheduled if a.task.task_id == 0
    )
    assert surviving.attempt == 3


# ------------------------------------------------------------------------- preemption
def test_preemption_revokes_expansion_and_keeps_answers(loaded_hdfs, cost_model):
    """A tenant that expanded into idle slots is cut back when the other tenant arrives."""
    serial = _serial_reference(loaded_hdfs, cost_model, 4)
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    # Alice floods the cluster alone; bob's jobs arrive while hers are mid-flight.
    jobs = [
        _make_job(loaded_hdfs, cost_model, "a0", "alice"),
        _make_job(loaded_hdfs, cost_model, "a1", "alice"),
        _make_job(loaded_hdfs, cost_model, "b0", "bob", submit_s=2.0),
        _make_job(loaded_hdfs, cost_model, "b1", "bob", submit_s=2.0),
    ]
    policy = ConcurrencyPolicy(
        max_concurrent_jobs=4,
        preemption=True,
        tenant_weights={"alice": 1.0, "bob": 1.0},
    )
    outcomes = tracker.run_concurrent_map_phases(jobs, policy)
    assert [_sorted_output(o.outcome) for o in outcomes] == serial
    _assert_exactly_one_accepted_attempt_per_task(jobs, outcomes)
    _assert_launch_audit(jobs, outcomes)
    kills = [j.counters.value(Counters.PREEMPT_ATTEMPTS_KILLED) for j in jobs]
    assert sum(kills) > 0
    assert all(k <= MAX_PREEMPTIONS_PER_JOB for k in kills)
    # Only the over-entitled tenant's attempts were revoked, and the waste is accounted.
    assert kills[2] == kills[3] == 0
    assert sum(
        j.counters.value(Counters.PREEMPT_WASTED_SECONDS) for j in jobs[:2]
    ) >= 0.0


# ------------------------------------------------------------------------- deadlines
def test_deadline_admission_is_edf_with_honest_verdicts(loaded_hdfs, cost_model):
    """Tighter deadlines are admitted first; deadline_met reflects the real finish."""
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    jobs = [
        _make_job(loaded_hdfs, cost_model, "loose", "t", deadline_s=1000.0),
        _make_job(loaded_hdfs, cost_model, "tight", "t", deadline_s=30.0),
        _make_job(loaded_hdfs, cost_model, "hopeless", "t", deadline_s=0.5),
    ]
    outcomes = tracker.run_concurrent_map_phases(
        jobs, ConcurrencyPolicy(max_concurrent_jobs=1)
    )
    loose, tight, hopeless = outcomes
    # EDF admission: the 0.5 s deadline launches first, the 1000 s one last.
    assert hopeless.first_launch_s < tight.first_launch_s < loose.first_launch_s
    assert hopeless.deadline_met is False
    assert loose.deadline_met is True
    for outcome, job in zip(outcomes, jobs):
        expected = outcome.finish_s <= job.deadline_s
        assert outcome.deadline_met is expected
    met = sum(j.counters.value(Counters.DEADLINE_JOBS_MET) for j in jobs)
    missed = sum(j.counters.value(Counters.DEADLINE_JOBS_MISSED) for j in jobs)
    assert met + missed == len(jobs)
    assert missed >= 1


# ------------------------------------------------------------------- session layer
_PATH = "/data/synthetic"


def _tenant_sessions(**concurrency) -> list[Session]:
    config = HailConfig(
        index_attributes=("f1",),
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        adaptive_auto_tune=True,
    ).with_concurrency(**concurrency)
    alice = Session.deploy(nodes=4, hail_config=config, tenant="alice")
    generator = SyntheticGenerator(seed=7)
    alice.upload(_PATH, generator.generate(800), generator.schema, rows_per_block=100)
    return [alice, alice.attach("bob")]


def test_speculation_does_not_double_commit_adaptive_builds():
    """The shared tuner sees each job exactly once even when backups race its attempts."""
    sessions = _tenant_sessions(max_jobs=4, speculative_execution=True)
    chaos = ConcurrentChaos(slow_nodes={1: 10.0})
    for i in range(8):
        session = sessions[i % 2]
        lo = (i * 1231) % (VALUE_RANGE // 2)
        session.dataset(_PATH).where(
            col("f1").between(lo, lo + VALUE_RANGE // 10)
        ).named(f"sp-{i}").submit()
    batches = run_multi_tenant_batch(sessions, chaos=chaos)
    assert len(batches["alice"]) == len(batches["bob"]) == 4
    manager = sessions[0].system("HAIL").lifecycle
    # A discarded racer must not re-observe its job: exactly one observation per job.
    assert manager.tenant_jobs == {"alice": 4, "bob": 4}
