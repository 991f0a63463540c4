"""Operator queries are ordinary jobs: scans plus a finish step, run by ``BaseSystem`` alone.

Four properties of the one lowering every compiled query goes through:

(a) back-to-back, nothing observable moved — simulated runtime, counter bag and rows of every
    operator on every system are pinned as literals captured at the parent commit, on a
    deployment where job order matters (adaptive indexing, the auto-tuner and zone maps on);
(b) an operator's scans take failure injection like any scan job does;
(c) on a concurrency-configured deployment an operator's scans interleave with other
    tenants' jobs, answer as ``collect()`` does, and survive chaos;
(d) a batch holding a single operator runs exactly as ``collect()`` does.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Session, col, run_multi_tenant_batch
from repro.cluster.failure import ConcurrentChaos, FailureEvent
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.hail.config import HailConfig
from repro.mapreduce.counters import Counters

_LEFT = "/jobs/left"
_RIGHT = "/jobs/right"
_SYSTEMS = ("HAIL", "Hadoop++", "Hadoop")
_QUERIES = ("group-combiner", "group-no-combiner", "join-auto", "join-hash", "top-k")


def _records(seed: int, count: int) -> list[tuple]:
    """Synthetic rows with the join key folded to 50 values and the group key to 7."""
    raw = SyntheticGenerator(seed=seed).generate(count)
    return [(row[0] % 50, row[1], row[2] % 7) + row[3:] for row in raw]


def _deploy(config: HailConfig, systems=("HAIL",), tenant: str = "default") -> Session:
    session = Session.deploy(
        nodes=4, systems=systems, hail_config=config, trojan_attribute="f1", tenant=tenant
    )
    session.upload(_LEFT, _records(11, 400), SYNTHETIC_SCHEMA, rows_per_block=50)
    session.upload(_RIGHT, _records(12, 200), SYNTHETIC_SCHEMA, rows_per_block=50)
    return session


def _operator(session: Session, name: str):
    """One of the five operator datasets, every one with a selection adaptive indexing sees."""
    left, right = session.dataset(_LEFT), session.dataset(_RIGHT)
    half = col("f2") < VALUE_RANGE // 2
    if name.startswith("group"):
        grouped = left.where(half).group_by("f3").agg("count(*)", "sum(f2)", "avg(f4)")
        return grouped.with_combiner(name == "group-combiner").named(name)
    if name.startswith("join"):
        sides = (left.where(half).select("f1", "f2"), right.select("f1", "f3"))
        strategy = "hash" if name == "join-hash" else None
        return sides[0].join(sides[1], on="f1", strategy=strategy).named(name)
    ranked = left.where(col("f4") >= VALUE_RANGE // 4).select("f2", "f3")
    return ranked.order_by("f2", descending=True).limit(7).named(name)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _observe(result) -> tuple[str, str, str]:
    """``(repr(runtime_s), digest of the sorted counter bag, digest of the rows)``."""
    counters = sorted(result.job.counters.as_dict().items())
    return repr(result.runtime_s), _digest(counters), _digest(result.records)


# --------------------------------------------------------------------------- (a) bit-identity
#: Captured at d534b0a (the parent of the one-lowering change), before ``src/`` was edited.
_PINNED: dict[tuple[str, str], tuple[str, str, str]] = {
    ("HAIL", "group-combiner"): ("13.765506912719637", "9881683571f844e3", "764a9bf2bc4d7a79"),
    ("HAIL", "group-no-combiner"): ("13.841096389395354", "2ee22d4785901ab6", "764a9bf2bc4d7a79"),
    ("HAIL", "join-auto"): ("23.98619792725502", "b07b7e59e614c79d", "73a353b4e344605f"),
    ("HAIL", "join-hash"): ("23.986574559155343", "5cd8c0a30f7f5f23", "73a353b4e344605f"),
    ("HAIL", "top-k"): ("7.305175947919849", "0d03972c534cd1a4", "3017ffdcc85ba3d8"),
    ("Hadoop++", "group-combiner"): ("13.851490369556679", "aec0fede0a5459a9", "764a9bf2bc4d7a79"),
    ("Hadoop++", "group-no-combiner"): ("13.851529204760949", "d2e272d73484617c", "764a9bf2bc4d7a79"),
    ("Hadoop++", "join-auto"): ("24.054756493761836", "cc93b4e807e5a901", "73a353b4e344605f"),
    ("Hadoop++", "join-hash"): ("24.05513312566216", "ae5fed035d559e50", "73a353b4e344605f"),
    ("Hadoop++", "top-k"): ("6.941059388780382", "7c85430236cedbca", "3017ffdcc85ba3d8"),
    ("Hadoop", "group-combiner"): ("13.75564149113653", "0ec6a9f297efc9a0", "764a9bf2bc4d7a79"),
    ("Hadoop", "group-no-combiner"): ("13.755680326340798", "514cb691d0d30119", "764a9bf2bc4d7a79"),
    ("Hadoop", "join-auto"): ("23.9114143699341", "be6291621aa98551", "73a353b4e344605f"),
    ("Hadoop", "join-hash"): ("23.9114143699341", "be6291621aa98551", "73a353b4e344605f"),
    ("Hadoop", "top-k"): ("10.155328895177396", "6eda25853830c25c", "3017ffdcc85ba3d8"),
}


def test_serial_operator_runs_are_bit_identical_to_the_parent_commit():
    config = (
        HailConfig.for_attributes(("f1",), functional_partition_size=1)
        .with_adaptive(offer_rate=0.5)
        .with_lifecycle(auto_tune=True)
        .with_zone_maps()
    )
    session = _deploy(config, systems=_SYSTEMS)
    observed = {
        (system, name): _observe(_operator(session, name).collect(system=system))
        for system in _SYSTEMS
        for name in _QUERIES
    }
    assert observed == _PINNED


# --------------------------------------------------------------------------- (b) failure injection
def _indexed(**concurrency) -> HailConfig:
    config = HailConfig.for_attributes(("f1",), functional_partition_size=1)
    return config.with_concurrency(**concurrency) if concurrency else config


@pytest.mark.parametrize("name", ["group-combiner", "join-auto", "join-hash"])
def test_operator_scans_take_failure_injection(name):
    """A node dying under an operator's scans reschedules tasks and leaves the answer alone."""
    session = _deploy(_indexed())
    expected = _operator(session, name).collect()
    result = _operator(session, name).collect(failure=FailureEvent(node_id=1, at_progress=0.5))
    assert result.records == expected.records != []
    assert result.job.counters.value(Counters.RESCHEDULED_MAP_TASKS) > 0
    assert result.job.rescheduled_tasks > 0 and result.job.failure_node == 1
    assert session.system().cluster.node(1).is_alive


def test_block_wise_top_k_has_no_job_to_fail():
    session = _deploy(_indexed())
    with pytest.raises(ValueError, match="runs no MapReduce job"):
        _operator(session, "top-k").collect(failure=FailureEvent(node_id=1, at_progress=0.5))


# --------------------------------------------------------------------------- (c) interleaving
#: What alice submits in the interleaved batches: one operator of each kind.
_BATCHED = ("group-combiner", "join-hash", "top-k")


def _tenants() -> tuple[Session, Session]:
    alice = _deploy(_indexed(max_jobs=4), tenant="alice")
    return alice, alice.attach("bob")


def _submit_operators_between_scans(alice: Session, bob: Session) -> list:
    """Round-robin arrival: a-group, b-scan, a-join, b-scan, a-topk, b-scan."""
    handles = [_operator(alice, name).submit() for name in _BATCHED]
    for i in range(3):
        bob.dataset(_LEFT).where(col("f2") < (i + 1) * VALUE_RANGE // 4).named(f"b-{i}").submit()
    return handles


def _reference_rows() -> list[list[tuple]]:
    twin = _deploy(_indexed(max_jobs=4))
    return [_operator(twin, name).collect().records for name in _BATCHED]


def test_operators_interleave_with_another_tenants_scans(monkeypatch):
    alice, bob = _tenants()
    handles = _submit_operators_between_scans(alice, bob)
    finished = _spy_on_finish_steps(monkeypatch, alice.system())
    batches = run_multi_tenant_batch([alice, bob])
    assert [handle.result() for handle in handles] == batches["alice"].results
    assert [result.records for result in batches["alice"]] == _reference_rows()
    grouped, joined, _ = batches["alice"]
    for result in (grouped, joined):
        assert result.job.counters.value(Counters.SCHED_QUEUE_JOBS_INTERLEAVED) > 0
    # The join's two scans ran side by side: it took the later one (not both) plus the hash step.
    scan_runtimes, scans_s = finished["join-hash"]
    assert len(scan_runtimes) == 2 and scans_s == max(scan_runtimes)
    assert joined.runtime_s == scans_s + joined.job.reduce_phase_s
    assert joined.job.counters.value(Counters.TENANT_JOBS_ADMITTED) == 2
    # The block-wise top-k had nothing to schedule: it finished at admission, before any scan.
    assert list(finished)[0] == "top-k" and finished["top-k"] == ([], 0.0)
    assert alice.stats().queries_run == 3 and bob.stats().queries_run == 3


def _spy_on_finish_steps(monkeypatch, system) -> dict:
    """Record ``query name -> (scan runtimes, scans_s)`` as each lowering's finish step runs."""
    finished: dict[str, tuple[list[float], float]] = {}
    lower = system._lower

    def spying_lower(query, path):
        lowering = lower(query, path)
        finish = lowering.finish

        def spy(jobs, scans_s):
            finished[query.name] = ([job.runtime_s for job in jobs], scans_s)
            return finish(jobs, scans_s)

        lowering.finish = spy
        return lowering

    monkeypatch.setattr(system, "_lower", spying_lower)
    return finished


def test_operators_survive_a_node_death_in_the_interleaved_batch():
    alice, bob = _tenants()
    handles = _submit_operators_between_scans(alice, bob)
    chaos = ConcurrentChaos(
        node_failure=FailureEvent(node_id=1, at_progress=0.5, expiry_interval_s=5.0),
        kill_time_s=0.05,
    )
    batches = run_multi_tenant_batch([alice, bob], chaos=chaos)
    assert [handle.result().records for handle in handles] == _reference_rows()
    rescheduled = sum(
        result.job.counters.value(Counters.RESCHEDULED_MAP_TASKS)
        for batch in batches.values()
        for result in batch
    )
    assert rescheduled > 0
    assert alice.system().cluster.node(1).is_alive


def test_a_joins_deadline_is_met_only_if_both_scans_meet_it():
    alice, bob = _tenants()
    tight = _operator(alice, "join-hash").submit(deadline_s=1e-6)
    loose = _operator(alice, "join-auto").submit(deadline_s=1e6)
    bob.dataset(_LEFT).where(col("f2") < VALUE_RANGE // 4).named("b-0").submit()
    run_multi_tenant_batch([alice, bob])
    assert tight.result().job.deadline_met is False
    assert loose.result().job.deadline_met is True


# --------------------------------------------------------------------------- (d) a batch of one
@pytest.mark.parametrize("name", _QUERIES)
def test_a_batch_of_one_operator_runs_exactly_as_collect_does(name):
    collected = _observe(_operator(_deploy(_indexed(max_jobs=4)), name).collect())
    session = _deploy(_indexed(max_jobs=4))
    _operator(session, name).submit()
    (drained,) = session.run_batch()
    assert _observe(drained) == collected
    assert drained.job.counters.value(Counters.SCHED_QUEUE_JOBS_INTERLEAVED) == 0


# --------------------------------------------------------------------------- finish-step accounting
def test_join_averages_record_reader_time_over_all_map_tasks_of_both_sides():
    """Sides with different task counts: the average is per task, not the mean of two means."""
    result = _operator(_deploy(_indexed()), "join-hash").collect()
    by_side: dict[str, list[float]] = {}
    for attempt in result.job.task_results:
        by_side.setdefault(attempt.task.jobconf.input_path, []).append(
            attempt.result.record_reader_s
        )
    left, right = by_side[_LEFT], by_side[_RIGHT]
    assert len(left) != len(right) and len(left) + len(right) == result.job.num_map_tasks
    per_task = result.job.total_record_reader_s / result.job.num_map_tasks
    assert result.job.avg_record_reader_s == per_task
    assert per_task == pytest.approx(sum(left + right) / len(left + right))
    mean_of_means = (sum(left) / len(left) + sum(right) / len(right)) / 2
    assert result.job.avg_record_reader_s != pytest.approx(mean_of_means)


def test_block_wise_top_k_reports_its_slowest_probe(monkeypatch):
    from repro.engine.executor import VectorizedExecutor

    probes: list[float] = []
    execute = VectorizedExecutor.execute

    def recording(self, *args, **kwargs):
        result = execute(self, *args, **kwargs)
        probes.append(result.seconds)
        return result

    monkeypatch.setattr(VectorizedExecutor, "execute", recording)
    job = _operator(_deploy(_indexed()), "top-k").collect().job
    assert job.max_record_reader_s == max(probes) > 0.0
    assert job.total_record_reader_s == pytest.approx(sum(probes))


def test_type_error_inside_a_columnar_probe_surfaces(monkeypatch):
    """Text vs. columnar is read off the payload up front, never inferred from a TypeError."""
    from repro.engine.executor import VectorizedExecutor

    execute = VectorizedExecutor.execute
    calls = []

    def broken_once(self, *args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise TypeError("unorderable zone bound")
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(VectorizedExecutor, "execute", broken_once)
    with pytest.raises(TypeError, match="unorderable zone bound"):
        _operator(_deploy(_indexed()), "top-k").collect()
    assert len(calls) == 1  # no silent full-scan retry behind the error


def test_a_text_top_k_looks_up_no_block_bound_until_it_explains(monkeypatch):
    """Text replicas register no zone ranges: a Hadoop top-k runs without one ``_block_bound``
    lookup, and only its ``EXPLAIN`` header reads them (one per block, every one ``None``)."""
    from repro.engine.operators import topk

    calls = []
    block_bound = topk._block_bound

    def counted(*args):
        calls.append(args)
        return block_bound(*args)

    monkeypatch.setattr(topk, "_block_bound", counted)
    session = _deploy(_indexed(), systems=("Hadoop",))
    result = _operator(session, "top-k").collect()
    assert calls == [] and len(result.records) == 7
    blocks = len(session.system().hdfs.namenode.file_blocks(_LEFT))
    assert f"zone-range bounds: 0/{blocks} blocks (full scan-and-sort)" in result.explain()
    assert len(calls) == blocks
