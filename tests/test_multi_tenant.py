"""Multi-tenant concurrency invariants: isolation, quotas, admission, fidelity.

Covers the acceptance criteria of the concurrent-execution PR at both layers:

- **JobTracker** — :meth:`~repro.mapreduce.job_tracker.JobTracker.run_concurrent_map_phases`
  must interleave jobs over the shared slot pool without ever changing a job's answers,
  letting a tenant exceed its slot quota, or letting one tenant's counters bleed into
  another's bag;
- **Session** — attached tenant sessions share one deployment (and one adaptive tuner) but
  keep strictly separate statistics, and a concurrent drain returns bit-identical results
  to the serial baseline.
"""

from __future__ import annotations

import pytest

from repro.api import BatchExecutionError, Session, col, run_multi_tenant_batch
from repro.cluster.failure import ConcurrentChaos
from repro.datagen.synthetic import VALUE_RANGE, SyntheticGenerator
from repro.hail import HailConfig
from repro.hdfs import DataFile, HdfsClient, StandardUploadPipeline
from repro.mapreduce import Counters, JobConf, TextInputFormat
from repro.mapreduce.job_tracker import ConcurrencyPolicy, ConcurrentJob, JobTracker
from repro.mapreduce.task import MapTask
from repro.persist import CrashInjected, CrashPoint


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


def _make_job(hdfs, cost, name: str, tenant: str) -> ConcurrentJob:
    conf = _scan_job(name)
    splits = conf.input_format.get_splits(hdfs, conf, cost)
    tasks = [MapTask(i, split, conf) for i, split in enumerate(splits)]
    return ConcurrentJob(tasks=tasks, counters=Counters(), tenant=tenant)


def _sorted_output(outcome) -> list:
    return sorted(
        pair for attempt in outcome.scheduled for pair in attempt.result.output
    )


def _peak_concurrency(outcomes, tenant: str) -> int:
    """Max simultaneously running attempts of one tenant (half-open intervals)."""
    events = []
    for job in outcomes:
        if job.tenant != tenant:
            continue
        for attempt in job.outcome.scheduled:
            events.append((attempt.start_s, 1))
            events.append((attempt.finish_s, -1))
    peak = running = 0
    # Finishes sort before starts at the same instant: a slot freed at t can be reused at t.
    for _, delta in sorted(events, key=lambda event: (event[0], event[1])):
        running += delta
        peak = max(peak, running)
    return peak


# --------------------------------------------------------------------------- job tracker
@pytest.mark.parametrize("queue_policy", ["fair", "fifo"])
def test_concurrent_results_identical_to_serial(loaded_hdfs, cost_model, queue_policy):
    """Interleaving changes the timeline, never the answers — under either queue policy."""
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    serial = [
        _sorted_output(tracker.run_map_phase(_make_job(loaded_hdfs, cost_model, f"j{i}", "t").tasks, Counters()))
        for i in range(3)
    ]
    jobs = [
        _make_job(loaded_hdfs, cost_model, f"j{i}", tenant)
        for i, tenant in enumerate(["alice", "bob", "alice"])
    ]
    outcomes = tracker.run_concurrent_map_phases(
        jobs, ConcurrencyPolicy(max_concurrent_jobs=3, queue_policy=queue_policy)
    )
    assert [_sorted_output(outcome.outcome) for outcome in outcomes] == serial
    assert all(outcome.interleaved for outcome in outcomes)


def test_default_policy_reproduces_serial_timeline(loaded_hdfs, cost_model):
    """max_concurrent_jobs=1 is back-to-back execution: no window overlap, no interleaving."""
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    jobs = [_make_job(loaded_hdfs, cost_model, f"j{i}", "t") for i in range(2)]
    first, second = tracker.run_concurrent_map_phases(jobs)
    assert not first.interleaved and not second.interleaved
    assert second.first_launch_s >= first.finish_s
    assert first.outcome.scheduled[0].start_s == 0.0


def test_tenant_counters_never_bleed(loaded_hdfs, cost_model):
    """Each job's counter bag accounts exactly its own tasks, nobody else's."""
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    jobs = [
        _make_job(loaded_hdfs, cost_model, f"j{i}", tenant)
        for i, tenant in enumerate(["alice", "bob"])
    ]
    tracker.run_concurrent_map_phases(jobs, ConcurrencyPolicy(max_concurrent_jobs=2))
    for job in jobs:
        assert job.counters.value(Counters.LAUNCHED_MAP_TASKS) == len(job.tasks)
        assert job.counters.value(Counters.TENANT_JOBS_ADMITTED) == 1
        assert job.counters.value(Counters.SCHED_QUEUE_JOBS_INTERLEAVED) == 1


def test_slot_quota_holds_under_saturation(loaded_hdfs, cost_model):
    """A tenant's simultaneously running attempts never exceed its quota, even saturated."""
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    tenants = ["alice", "bob"] * 3
    jobs = [
        _make_job(loaded_hdfs, cost_model, f"j{i}", tenant)
        for i, tenant in enumerate(tenants)
    ]
    policy = ConcurrencyPolicy(max_concurrent_jobs=6, tenant_slot_quota=2)
    outcomes = tracker.run_concurrent_map_phases(jobs, policy)
    for tenant in ("alice", "bob"):
        assert _peak_concurrency(outcomes, tenant) <= 2
    # Six jobs fighting for 2 slots per tenant: somebody must have been deferred.
    assert sum(job.counters.value(Counters.TENANT_QUOTA_DEFERRALS) for job in jobs) > 0
    # And the quota never changed any answer.
    reference = _sorted_output(
        tracker.run_map_phase(_make_job(loaded_hdfs, cost_model, "ref", "t").tasks, Counters())
    )
    assert all(_sorted_output(outcome.outcome) == reference for outcome in outcomes)


def test_admission_limit_prevents_tenant_monopoly(loaded_hdfs, cost_model):
    """A backlogged tenant cannot hold every admission token; others overtake its jobs."""
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    tenants = ["alice", "alice", "alice", "bob"]
    jobs = [
        _make_job(loaded_hdfs, cost_model, f"j{i}", tenant)
        for i, tenant in enumerate(tenants)
    ]
    policy = ConcurrencyPolicy(max_concurrent_jobs=2, tenant_admission_limit=1)
    outcomes = tracker.run_concurrent_map_phases(jobs, policy)
    # bob's only job was submitted last but overtook alice's held-back second and third.
    assert outcomes[3].first_launch_s < outcomes[1].first_launch_s
    assert outcomes[3].first_launch_s < outcomes[2].first_launch_s
    assert jobs[3].counters.value(Counters.TENANT_ADMISSION_WAITS) == 0
    alice_waits = sum(jobs[i].counters.value(Counters.TENANT_ADMISSION_WAITS) for i in (1, 2))
    assert alice_waits >= 1


def test_zero_task_job_finishes_at_admission(loaded_hdfs, cost_model):
    """A job with no map tasks (every split pruned) is a normal job, not a scheduler stall."""
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    lone = ConcurrentJob(tasks=[], counters=Counters(), tenant="a")
    [outcome] = tracker.run_concurrent_map_phases([lone])
    assert outcome.outcome.scheduled == []
    assert outcome.outcome.makespan_s == outcome.finish_s == 0.0
    assert lone.counters.value(Counters.TENANT_JOBS_ADMITTED) == 1
    assert lone.counters.value(Counters.LAUNCHED_MAP_TASKS) == 0
    assert tracker.run_map_phase([], Counters()).makespan_s == 0.0

    # Behind a real job at the default one-job gate it is admitted — and done — the moment
    # the gate opens; it never holds the token, so the job after it is admitted then too.
    jobs = [
        _make_job(loaded_hdfs, cost_model, "real", "a"),
        ConcurrentJob(tasks=[], counters=Counters(), tenant="b"),
        _make_job(loaded_hdfs, cost_model, "after", "a"),
    ]
    real, empty, after = tracker.run_concurrent_map_phases(jobs)
    assert empty.outcome.scheduled == []
    assert empty.admitted_s == empty.finish_s == real.finish_s > 0.0
    assert not empty.interleaved
    assert after.admitted_s == real.finish_s
    assert _sorted_output(after.outcome) == _sorted_output(real.outcome) != []


# --------------------------------------------------------------------------- session layer
_PATH = "/data/synthetic"


def _tenant_sessions(max_jobs: int, **concurrency) -> list[Session]:
    config = HailConfig.for_attributes(
        ("f1", "f2"), functional_partition_size=1
    ).with_concurrency(max_jobs=max_jobs, **concurrency)
    alice = Session.deploy(nodes=4, hail_config=config, tenant="alice")
    generator = SyntheticGenerator(seed=7)
    alice.upload(_PATH, generator.generate(800), generator.schema, rows_per_block=100)
    return [alice, alice.attach("bob")]


def _submit_mixed(sessions: list[Session], count: int) -> None:
    for i in range(count):
        session = sessions[i % len(sessions)]
        attribute = ("f1", "f2")[i % 2]
        lo = (i * 1231) % (VALUE_RANGE // 2)
        session.dataset(_PATH).where(
            col(attribute).between(lo, lo + VALUE_RANGE // 10)
        ).named(f"mt-{i}").submit()


def test_attached_sessions_isolate_stats_and_share_catalog():
    """Tenants share the deployment's datasets but never each other's statistics."""
    alice, bob = _tenant_sessions(max_jobs=4)
    assert bob.paths == alice.paths  # the upload catalog is deployment-level
    assert bob.system("HAIL") is alice.system("HAIL")  # same system object
    _submit_mixed([alice, bob], 6)
    assert len(alice.pending) == 3 and len(bob.pending) == 3
    batches = run_multi_tenant_batch([alice, bob])
    assert len(batches["alice"]) == 3 and len(batches["bob"]) == 3
    # The pending-leak fix: every drained handle left its owner's queue.
    assert alice.pending == () and bob.pending == ()
    alice_stats, bob_stats = alice.stats(), bob.stats()
    assert alice_stats.tenant == "alice" and bob_stats.tenant == "bob"
    assert alice_stats.queries_run == 3 and bob_stats.queries_run == 3
    # Counters account each tenant's own jobs exactly; totals match a job-level recount.
    for stats, batch in ((alice_stats, batches["alice"]), (bob_stats, batches["bob"])):
        launched = sum(
            result.job.counters.value(Counters.LAUNCHED_MAP_TASKS) for result in batch
        )
        assert stats.counter(Counters.LAUNCHED_MAP_TASKS) == launched > 0
        assert stats.counter(Counters.TENANT_JOBS_ADMITTED) == 3
        assert stats.counter(Counters.SCHED_QUEUE_JOBS_INTERLEAVED) > 0


def test_multi_tenant_drain_identical_to_serial_baseline():
    """The same backlog answers identically whether drained serially or interleaved."""
    serial_sessions = _tenant_sessions(max_jobs=1)
    concurrent_sessions = _tenant_sessions(max_jobs=4)
    _submit_mixed(serial_sessions, 8)
    _submit_mixed(concurrent_sessions, 8)
    serial = run_multi_tenant_batch(serial_sessions)
    concurrent = run_multi_tenant_batch(concurrent_sessions)
    for tenant in ("alice", "bob"):
        serial_answers = [result.sorted_records() for result in serial[tenant]]
        concurrent_answers = [result.sorted_records() for result in concurrent[tenant]]
        assert concurrent_answers == serial_answers
    # The serial deployment interleaved nothing; the concurrent one interleaved both tenants.
    for session in serial_sessions:
        assert session.stats().counter(Counters.SCHED_QUEUE_JOBS_INTERLEAVED) == 0
    for session in concurrent_sessions:
        assert session.stats().counter(Counters.SCHED_QUEUE_JOBS_INTERLEAVED) > 0


def test_quota_holds_through_the_session_layer():
    """tenant_slot_quota configured on HailConfig reaches the scheduler and is respected."""
    sessions = _tenant_sessions(max_jobs=4, tenant_slot_quota=2)
    _submit_mixed(sessions, 8)
    batches = run_multi_tenant_batch(sessions)
    for tenant, batch in batches.items():
        events = []
        for result in batch:
            for attempt in result.job.task_results:
                events.append((attempt.start_s, 1))
                events.append((attempt.finish_s, -1))
        peak = running = 0
        for _, delta in sorted(events, key=lambda event: (event[0], event[1])):
            running += delta
            peak = max(peak, running)
        assert peak <= 2, f"{tenant} ran {peak} attempts at once with a quota of 2"


def test_shared_tuner_observes_every_tenant():
    """One deployment, one lifecycle manager: jobs from both tenants reach the tuner."""
    config = HailConfig(
        index_attributes=("f1",),
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        adaptive_auto_tune=True,
    ).with_concurrency(max_jobs=2)
    alice = Session.deploy(nodes=4, hail_config=config, tenant="alice")
    generator = SyntheticGenerator(seed=7)
    alice.upload(_PATH, generator.generate(400), generator.schema, rows_per_block=100)
    bob = alice.attach("bob")
    _submit_mixed([alice, bob], 4)
    run_multi_tenant_batch([alice, bob])
    manager = alice.system("HAIL").lifecycle
    assert manager is bob.system("HAIL").lifecycle
    assert manager.tenant_jobs == {"alice": 2, "bob": 2}


def test_scheduler_counters_audit_per_job_and_sum_to_global():
    """Per-job speculation/preemption/reschedule counters reconcile, and sum to the stats.

    Under a straggler node with speculation and preemption live, every job's
    ``LAUNCHED_MAP_TASKS`` must equal its accepted attempts plus its speculative discards
    plus its preemption kills plus its reschedules — and each tenant's session statistics
    must be exactly the sum of that tenant's per-job bags, nothing shared, nothing lost.
    """
    audited = (
        Counters.LAUNCHED_MAP_TASKS,
        Counters.SPEC_ATTEMPTS_LAUNCHED,
        Counters.SPEC_ATTEMPTS_WON,
        Counters.SPEC_ATTEMPTS_DISCARDED,
        Counters.SPEC_WASTED_SECONDS,
        Counters.PREEMPT_ATTEMPTS_KILLED,
        Counters.PREEMPT_WASTED_SECONDS,
        Counters.RESCHEDULED_MAP_TASKS,
    )
    sessions = _tenant_sessions(
        max_jobs=4,
        speculative_execution=True,
        preemption=True,
        tenant_weights={"alice": 1.0, "bob": 1.0},
    )
    _submit_mixed(sessions, 8)
    batches = run_multi_tenant_batch(sessions, chaos=ConcurrentChaos(slow_nodes={1: 10.0}))
    spec_launched = 0
    for tenant, batch in batches.items():
        for result in batch:
            job = result.job
            counters = job.counters
            # Audit identity: every launch is an accepted attempt or exactly one of a
            # speculative discard, a preemption kill, or a reschedule.
            assert counters.value(Counters.LAUNCHED_MAP_TASKS) == (
                len(job.task_results)
                + counters.value(Counters.SPEC_ATTEMPTS_DISCARDED)
                + counters.value(Counters.PREEMPT_ATTEMPTS_KILLED)
                + counters.value(Counters.RESCHEDULED_MAP_TASKS)
            )
            spec_launched += counters.value(Counters.SPEC_ATTEMPTS_LAUNCHED)
    # The straggler genuinely triggered backups somewhere in the batch.
    assert spec_launched > 0
    # Global = sum of per-job bags, per tenant, for every audited counter.
    for session in sessions:
        stats = session.stats()
        batch = batches[session.tenant]
        for counter in audited:
            total = sum(result.job.counters.value(counter) for result in batch)
            assert stats.counter(counter) == total, counter


def test_operator_counters_stay_per_tenant():
    """COMBINE_*/JOIN_*/TOPK_* counters account only the tenant that ran the operator.

    Alice runs one of each relational operator; bob (an attached sibling sharing the
    deployment) runs only a plain scan.  Bob's operator statistics must stay zero — the
    shared system object must not become a shared counter bag.
    """
    alice, bob = _tenant_sessions(max_jobs=2)
    bob.dataset(_PATH).where(col("f1") <= VALUE_RANGE // 2).named("bob-scan").collect()

    alice.dataset(_PATH).group_by("f3").agg("count(*)", "avg(f2)").named("a-group").collect()
    alice.dataset(_PATH).select("f1", "f2").join(
        alice.dataset(_PATH).select("f1", "f4"), on="f1"
    ).named("a-join").collect()
    alice.dataset(_PATH).order_by("f2", descending=True).limit(5).named("a-topk").collect()

    a, b = alice.stats(), bob.stats()
    # Raw synthetic group keys are near-unique per map task, so the combiner may not shrink
    # anything here — reduction magnitude is the differential suite's concern, not this one's.
    assert a.combine_input_records > 0 and a.combine_output_records > 0
    assert a.join_merge_joins + a.join_hash_joins == 1 and a.join_output_records > 0
    assert a.topk_blocks_read > 0
    assert a.shuffle_bytes_saved >= 0
    for stat in (
        "combine_input_records",
        "combine_output_records",
        "shuffle_bytes_saved",
        "join_merge_joins",
        "join_hash_joins",
        "join_output_records",
        "topk_blocks_read",
        "topk_blocks_skipped",
    ):
        assert getattr(b, stat) == 0, f"bob leaked {stat} from alice's operators"
    # And the isolation is symmetric: alice's plain-scan-only sibling view stays coherent —
    # her queries_run counts the three operator queries, bob's counts his single scan.
    assert a.queries_run == 3 and b.queries_run == 1


def test_all_pruned_batch_drains_through_the_session_layer():
    """A concurrent drain whose every job is zone-pruned to zero tasks returns empty results."""
    config = (
        HailConfig.for_attributes(("f1",), functional_partition_size=1)
        .with_zone_maps(True, split_pruning=True)
        .with_concurrency(max_jobs=2)
    )
    alice = Session.deploy(nodes=4, hail_config=config, tenant="alice")
    generator = SyntheticGenerator(seed=7)
    alice.upload(_PATH, generator.generate(800), generator.schema, rows_per_block=100)
    bob = alice.attach("bob")
    for i, session in enumerate((alice, bob, alice, bob)):
        session.dataset(_PATH).where(col("f2") < -1).named(f"never-{i}").submit()
    batches = run_multi_tenant_batch([alice, bob])
    num_blocks = len(alice.system("HAIL").hdfs.namenode.file_blocks(_PATH))
    for tenant in ("alice", "bob"):
        assert len(batches[tenant]) == 2
        for result in batches[tenant]:
            assert result.records == []
            assert result.job.num_map_tasks == 0
            assert result.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == num_blocks
    assert alice.pending == () and bob.pending == ()


# --------------------------------------------------------------------------- the one drain
@pytest.mark.parametrize("max_jobs", [1, 4])
def test_operator_query_drains_through_the_multi_tenant_batch(max_jobs):
    """A deferred relational-operator query runs at its position and lands in its owner's stats."""
    alice, bob = _tenant_sessions(max_jobs=max_jobs)
    grouped = alice.dataset(_PATH).group_by("f3").agg("count(*)").named("a-group").submit()
    scan = bob.dataset(_PATH).where(col("f1") <= VALUE_RANGE // 2).named("b-scan").submit()
    batches = run_multi_tenant_batch([alice, bob])
    assert batches["alice"].results == [grouped.result()]
    assert batches["bob"].results == [scan.result()]
    fresh = _tenant_sessions(max_jobs=max_jobs)[0]
    expected = fresh.dataset(_PATH).group_by("f3").agg("count(*)").collect()
    assert grouped.result().sorted_records() == expected.sorted_records() != []
    a, b = alice.stats(), bob.stats()
    assert a.queries_run == 1 and b.queries_run == 1
    assert a.combine_input_records > 0 and b.combine_input_records == 0
    assert alice.pending == () and bob.pending == ()


def test_mid_batch_crash_keeps_stats_handles_and_partial_in_step(tmp_path):
    """A kill between completions surfaces as BatchExecutionError; finished work is kept."""
    config = (
        HailConfig.for_attributes(("f1", "f2"), functional_partition_size=1)
        .with_concurrency(max_jobs=2)
        .with_persistence("memory", directory=str(tmp_path))
    )
    alice = Session.deploy(nodes=4, hail_config=config, tenant="alice")
    generator = SyntheticGenerator(seed=7)
    alice.upload(_PATH, generator.generate(800), generator.schema, rows_per_block=100)
    bob = alice.attach("bob")
    _submit_mixed([alice, bob], 4)
    handles = {session.tenant: list(session.pending) for session in (alice, bob)}
    persist = alice.system("HAIL").hdfs.persist
    persist.crash_point = CrashPoint("mid_concurrent_batch", after=0)
    with pytest.raises(BatchExecutionError) as excinfo:
        run_multi_tenant_batch([alice, bob])
    error = excinfo.value
    assert isinstance(error.__cause__.__cause__, CrashInjected)
    assert 0 < len(error.partial) < 4
    assert alice.stats().queries_run + bob.stats().queries_run == len(error.partial)
    done = [h for session in (alice, bob) for h in handles[session.tenant] if h.done]
    assert sorted(h.result().query_name for h in done) == sorted(
        result.query_name for result in error.partial
    )
    for session in (alice, bob):
        assert list(session.pending) == [h for h in handles[session.tenant] if not h.done]
    # The failed entry is one of the unfinished ones, addressed in round-robin entry order.
    merged = [handles[tenant][i] for i in range(2) for tenant in ("alice", "bob")]
    assert not merged[error.failed_index].done

    # Retry with the crash point disarmed: only the unfinished handles run.
    persist.crash_point = None
    finished = {id(h): h.result() for h in done}
    batches = run_multi_tenant_batch([alice, bob])
    assert sum(len(batch) for batch in batches.values()) == 4 - len(done)
    assert alice.stats().queries_run + bob.stats().queries_run == 4
    assert all(h.result() is finished[id(h)] for h in done)
    assert alice.pending == () and bob.pending == ()


def _deadlined(session: Session, count: int) -> list:
    return [
        session.dataset(_PATH)
        .where(col("f1") <= VALUE_RANGE // (i + 2))
        .named(f"dl-{i}")
        .submit(deadline_s=1e9)
        for i in range(count)
    ]


@pytest.mark.parametrize("multi_tenant", [False, True])
def test_deadlines_are_ignored_where_nothing_interleaves(multi_tenant):
    """deadline_s only matters on interleaved batches — on both entry points alike."""

    def drain(session: Session) -> None:
        if multi_tenant:
            run_multi_tenant_batch([session])
        else:
            session.run_batch()

    # Back-to-back deployment, and a lone query of its system group on a concurrent one.
    for max_jobs, count in ((1, 2), (4, 1)):
        session = _tenant_sessions(max_jobs=max_jobs)[0]
        handles = _deadlined(session, count)
        drain(session)
        assert [h.result().job.deadline_met for h in handles] == [None] * count
        assert session.stats().deadline_jobs_met == 0
    # Two deadlined queries interleave on max_jobs=4: honest verdicts, counted.
    session = _tenant_sessions(max_jobs=4)[0]
    handles = _deadlined(session, 2)
    drain(session)
    assert [h.result().job.deadline_met for h in handles] == [True, True]
    assert session.stats().deadline_jobs_met == 2


def _backlog_session(kind: str) -> Session:
    generator = SyntheticGenerator(seed=7)
    rows = generator.generate(800)
    if kind == "tri":
        session = Session.deploy(
            nodes=4,
            systems=("HAIL", "Hadoop++", "Hadoop"),
            index_attributes=("f1", "f2"),
            trojan_attribute="f1",
        )
    elif kind == "adaptive":
        config = HailConfig(
            index_attributes=(),
            functional_partition_size=1,
            splitting_policy=False,
            adaptive_indexing=True,
            adaptive_offer_rate=1.0,
        )
        session = Session.deploy(nodes=4, hail_config=config, data_scale=5000.0)
    else:
        return _tenant_sessions(max_jobs=4)[0]
    session.upload(_PATH, rows, generator.schema, rows_per_block=100)
    return session


@pytest.mark.parametrize("kind", ["tri", "adaptive", "concurrent"])
def test_run_batch_is_the_one_session_case_of_the_multi_tenant_drain(kind):
    """Same backlog, twin deployments: run_batch() ≡ run_multi_tenant_batch([session])."""
    twins = [_backlog_session(kind), _backlog_session(kind)]
    for session in twins:
        data = session.dataset(_PATH)
        for i, name in enumerate(session.system_names * 2):
            # Repeating one selective filter is what makes adaptive convergence order-sensitive.
            data.where(col("f1") < VALUE_RANGE // 10).named(f"eq-{i}").submit(system=name)
        data.group_by("f3").agg("count(*)").named("eq-group").submit()
        data.where(col("f2") < VALUE_RANGE // 10).named("eq-last").submit()
    single = twins[0].run_batch().results
    multi = run_multi_tenant_batch([twins[1]])[twins[1].tenant].results
    assert len(single) == len(multi) == 2 * len(twins[0].system_names) + 2
    for ours, theirs in zip(single, multi):
        assert ours.query_name == theirs.query_name and ours.system == theirs.system
        assert ours.records == theirs.records
        assert ours.runtime_s == theirs.runtime_s
        assert ours.job.counters.as_dict() == theirs.job.counters.as_dict()
    for name in twins[0].system_names:
        ours, theirs = twins[0].stats(name), twins[1].stats(name)
        assert ours.queries_run == theirs.queries_run > 0
        assert ours.counters == theirs.counters
    if kind == "adaptive":
        assert single[1].runtime_s < single[0].runtime_s  # convergence really happened
