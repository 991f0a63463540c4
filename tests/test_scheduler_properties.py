"""Property tests of the hardened concurrent scheduler (hypothesis-driven).

Randomised arrivals × tenant weights × quotas × fault plans are thrown at
:meth:`~repro.mapreduce.job_tracker.JobTracker.run_concurrent_map_phases` and a fixed set
of invariants must survive every combination:

- **completion** — every submitted job finishes with every task covered by exactly one
  accepted attempt (speculative winner uniqueness), regardless of stragglers, preemption
  or deadlines;
- **fidelity** — every job answers bit-identically to the serial no-fault reference;
- **audit** — each job's ``LAUNCHED_MAP_TASKS`` equals its accepted attempts plus its
  speculative discards plus its preemption kills plus its reschedules: no launch is ever
  double-counted or silently dropped;
- **quota** — no tenant's simultaneously running accepted attempts ever exceed its slot
  quota, even right after a preemption storm;
- **weighted sharing** — while two saturated tenants compete under preemption, the
  heavier tenant's share of accepted busy-seconds stays within tolerance of its weight.

The cluster and uploaded file are deterministic and *read-only*: one module-scoped
deployment serves every hypothesis example (scheduling never mutates HDFS state), which
keeps hundreds of examples affordable.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, CostModel, CostParameters, HardwareProfile
from repro.cluster.failure import ConcurrentChaos
from repro.hdfs import DataFile, Hdfs, HdfsClient, StandardUploadPipeline
from repro.mapreduce import Counters, JobConf, TextInputFormat
from repro.mapreduce.job_tracker import (
    MAX_PREEMPTIONS_PER_JOB,
    ConcurrencyPolicy,
    ConcurrentJob,
    JobTracker,
)
from repro.mapreduce.task import MapTask
from repro.query.schema import FieldType, Schema

TENANTS = ("alice", "bob")


def _build_environment():
    cluster = Cluster.homogeneous(4, HardwareProfile.physical(), seed=1)
    cost = CostModel(CostParameters(data_scale=1.0, variance_seed=11))
    hdfs = Hdfs(cluster, cost)
    schema = Schema.of(
        ("id", FieldType.INT),
        ("name", FieldType.STRING),
        ("score", FieldType.DOUBLE),
        name="simple",
    )
    records = [(i, f"name-{i % 7}", round(i * 1.5, 2)) for i in range(60)]
    pipeline = StandardUploadPipeline(hdfs, cost)
    client = HdfsClient(hdfs, cost, pipeline, client_node=0)
    client.upload(DataFile("/data/simple", schema, records), rows_per_block=10)
    return hdfs, cost


_HDFS, _COST = _build_environment()


def _scan_conf(name: str) -> JobConf:
    def mapper(key, line):
        return [(line.split("|")[1], 1)]

    return JobConf(
        name=name, input_path="/data/simple", mapper=mapper, input_format=TextInputFormat()
    )


def _make_job(name: str, tenant: str, **kwargs) -> ConcurrentJob:
    conf = _scan_conf(name)
    splits = conf.input_format.get_splits(_HDFS, conf, _COST)
    tasks = [MapTask(i, split, conf) for i, split in enumerate(splits)]
    return ConcurrentJob(tasks=tasks, counters=Counters(), tenant=tenant, **kwargs)


def _sorted_output(outcome) -> list:
    return sorted(
        pair for attempt in outcome.scheduled for pair in attempt.result.output
    )


#: The serial no-fault answer every randomised schedule must reproduce.
_REFERENCE = _sorted_output(
    JobTracker(_HDFS.cluster, _HDFS, _COST).run_map_phase(
        _make_job("reference", "t").tasks, Counters()
    )
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


def _assert_invariants(jobs, outcomes, policy) -> None:
    assert len(outcomes) == len(jobs)
    for job, outcome in zip(jobs, outcomes):
        # Completion + speculative winner uniqueness: one accepted attempt per task.
        accepted = sorted(a.task.task_id for a in outcome.outcome.scheduled)
        assert accepted == sorted(t.task_id for t in job.tasks)
        # Fidelity: the interleaved, faulted, preempted schedule changed no answer.
        assert _sorted_output(outcome.outcome) == _REFERENCE
        # Audit identity: every launch is accounted exactly once.
        counters = job.counters
        assert counters.value(Counters.LAUNCHED_MAP_TASKS) == (
            len(outcome.outcome.scheduled)
            + counters.value(Counters.SPEC_ATTEMPTS_DISCARDED)
            + counters.value(Counters.PREEMPT_ATTEMPTS_KILLED)
            + counters.value(Counters.RESCHEDULED_MAP_TASKS)
        )
        # Preemption stays inside its per-job bound.
        assert counters.value(Counters.PREEMPT_ATTEMPTS_KILLED) <= MAX_PREEMPTIONS_PER_JOB
        # A job submitted later can never have launched earlier than its arrival.
        if outcome.first_launch_s is not None:
            assert outcome.first_launch_s >= job.submit_s
    # Quota: no tenant ever ran more accepted attempts at once than allowed.
    if policy.tenant_slot_quota is not None:
        for tenant in TENANTS:
            assert _peak_concurrency(outcomes, tenant) <= policy.tenant_slot_quota


@settings(deadline=None, max_examples=40)
@given(
    tenants=st.lists(st.sampled_from(TENANTS), min_size=2, max_size=5),
    submits=st.lists(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False), min_size=5, max_size=5
    ),
    deadlines=st.lists(
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=200.0, allow_nan=False)),
        min_size=5,
        max_size=5,
    ),
    max_jobs=st.integers(min_value=1, max_value=5),
    quota=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    weight_pair=st.tuples(
        st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([1.0, 2.0, 3.0])
    ),
    speculation=st.booleans(),
    preemption=st.booleans(),
    straggler=st.sampled_from([None, 4.0, 12.0]),
)
def test_random_schedules_preserve_invariants(
    tenants, submits, deadlines, max_jobs, quota, weight_pair, speculation, preemption, straggler
):
    """Arrivals × weights × quotas × faults: the invariant set survives every draw."""
    tracker = JobTracker(_HDFS.cluster, _HDFS, _COST)
    jobs = [
        _make_job(
            f"j{i}",
            tenant,
            submit_s=submits[i],
            deadline_s=deadlines[i],
        )
        for i, tenant in enumerate(tenants)
    ]
    policy = ConcurrencyPolicy(
        max_concurrent_jobs=max_jobs,
        tenant_slot_quota=quota,
        speculative_execution=speculation,
        preemption=preemption,
        tenant_weights={"alice": weight_pair[0], "bob": weight_pair[1]},
    )
    chaos = ConcurrentChaos(slow_nodes={1: straggler}) if straggler else None
    outcomes = tracker.run_concurrent_map_phases(jobs, policy, chaos=chaos)
    _assert_invariants(jobs, outcomes, policy)
    # Deadline verdicts exist exactly for the jobs that asked for one, and are honest.
    for job, outcome in zip(jobs, outcomes):
        if job.deadline_s is None:
            assert outcome.deadline_met is None
        else:
            assert outcome.deadline_met is (outcome.finish_s <= job.deadline_s)


@settings(deadline=None, max_examples=15)
@given(
    heavy=st.sampled_from([2.0, 3.0, 4.0]),
    jobs_per_tenant=st.integers(min_value=2, max_value=3),
)
def test_weighted_shares_favour_the_heavier_tenant(heavy, jobs_per_tenant):
    """Under saturation with preemption, slot-share tracks weight within tolerance.

    Both tenants submit identical backlogs at t=0; alice's weight is ``heavy``x bob's.
    While both tenants still have work in flight, alice's accepted busy-seconds must be
    at least bob's — the weighted entitlement may never invert the ordering.
    """
    tracker = JobTracker(_HDFS.cluster, _HDFS, _COST)
    jobs = []
    for rank in range(jobs_per_tenant):
        for tenant in TENANTS:
            jobs.append(_make_job(f"{tenant}{rank}", tenant))
    policy = ConcurrencyPolicy(
        max_concurrent_jobs=2 * jobs_per_tenant,
        preemption=True,
        tenant_weights={"alice": heavy, "bob": 1.0},
    )
    outcomes = tracker.run_concurrent_map_phases(jobs, policy)
    _assert_invariants(jobs, outcomes, policy)
    # Contention window: up to the earlier of the two tenants' last accepted finish.
    horizon = min(
        max(
            attempt.finish_s
            for outcome in outcomes
            if outcome.tenant == tenant
            for attempt in outcome.outcome.scheduled
        )
        for tenant in TENANTS
    )
    busy = {tenant: 0.0 for tenant in TENANTS}
    for outcome in outcomes:
        for attempt in outcome.outcome.scheduled:
            start = min(attempt.start_s, horizon)
            finish = min(attempt.finish_s, horizon)
            busy[outcome.tenant] += max(0.0, finish - start)
    assert busy["alice"] >= busy["bob"] * 0.9


@settings(deadline=None, max_examples=15)
@given(
    quota=st.integers(min_value=1, max_value=3),
    arrival_gap=st.floats(min_value=0.5, max_value=25.0, allow_nan=False),
)
def test_quota_survives_preemption_storms(quota, arrival_gap):
    """A tenant cut back mid-flight by preemption still never exceeds its quota."""
    tracker = JobTracker(_HDFS.cluster, _HDFS, _COST)
    # Alice floods alone; bob arrives mid-flight, shrinking alice's entitlement.
    jobs = [
        _make_job("a0", "alice"),
        _make_job("a1", "alice"),
        _make_job("b0", "bob", submit_s=arrival_gap),
        _make_job("b1", "bob", submit_s=arrival_gap),
    ]
    policy = ConcurrencyPolicy(
        max_concurrent_jobs=4,
        tenant_slot_quota=quota,
        preemption=True,
        tenant_weights={"alice": 1.0, "bob": 1.0},
    )
    outcomes = tracker.run_concurrent_map_phases(jobs, policy)
    _assert_invariants(jobs, outcomes, policy)
