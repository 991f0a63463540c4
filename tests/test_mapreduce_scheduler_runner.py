"""Tests for the JobTracker scheduling simulation, shuffle/reduce and the end-to-end runner."""

from dataclasses import replace

import pytest

from repro.cluster import CostModel, FailureInjector
from repro.hdfs import DataFile, HdfsClient, StandardUploadPipeline
from repro.mapreduce import Counters, JobConf, MapReduceRunner, TextInputFormat
from repro.mapreduce.job_tracker import JobTracker
from repro.mapreduce.shuffle import run_reduce_phase
from repro.mapreduce.task import MapTask

from emitted import emitted


@pytest.fixture
def loaded_hdfs(hdfs, cost_model, simple_schema, simple_records):
    pipeline = StandardUploadPipeline(hdfs, cost_model)
    client = HdfsClient(hdfs, cost_model, pipeline, client_node=0)
    client.upload(DataFile("/data/simple", simple_schema, list(simple_records)), rows_per_block=10)
    return hdfs


def _scan_job(mapper=None) -> JobConf:
    def default_mapper(key, line):
        return [(line.split("|")[1], 1)]

    return JobConf(
        name="scan",
        input_path="/data/simple",
        mapper=mapper or default_mapper,
        input_format=TextInputFormat(),
    )


# --------------------------------------------------------------------------- job tracker
def test_task_trackers_follow_alive_nodes_and_slots(loaded_hdfs, cost_model):
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    trackers = tracker.task_trackers()
    assert len(trackers) == 4
    assert all(t.map_slots == cost_model.params.map_slots_per_node for t in trackers)
    loaded_hdfs.cluster.kill_node(3)
    assert len(tracker.task_trackers()) == 3
    loaded_hdfs.cluster.revive_all()


def test_map_phase_schedules_every_task_once(loaded_hdfs, cost_model):
    conf = _scan_job()
    splits = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)
    tasks = [MapTask(i, split, conf) for i, split in enumerate(splits)]
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    counters = Counters()
    outcome = tracker.run_map_phase(tasks, counters)
    assert len(outcome.scheduled) == len(tasks)
    assert outcome.makespan_s > 0
    assert counters.value(Counters.LAUNCHED_MAP_TASKS) == len(tasks)
    # Every attempt pays at least the scheduling overhead.
    for attempt in outcome.scheduled:
        assert attempt.duration_s >= cost_model.task_overhead()


def test_map_phase_prefers_local_slots(loaded_hdfs, cost_model):
    conf = _scan_job()
    splits = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)
    tasks = [MapTask(i, split, conf) for i, split in enumerate(splits)]
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    outcome = tracker.run_map_phase(tasks, Counters())
    local = sum(
        1 for attempt in outcome.scheduled if attempt.node_id in attempt.task.split.locations
    )
    assert local >= len(tasks) * 0.5


def test_map_phase_makespan_scales_with_slots(loaded_hdfs, cost_model):
    conf = _scan_job()
    splits = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)
    tasks = [MapTask(i, split, conf) for i, split in enumerate(splits)]
    narrow, wide = (
        JobTracker(
            loaded_hdfs.cluster,
            loaded_hdfs,
            CostModel(replace(cost_model.params, map_slots_per_node=slots)),
        )
        for slots in (1, 4)
    )
    narrow_makespan = narrow.run_map_phase(tasks, Counters()).makespan_s
    wide_makespan = wide.run_map_phase(tasks, Counters()).makespan_s
    assert wide_makespan < narrow_makespan


def test_num_slots_counts_only_alive_slots(loaded_hdfs, cost_model):
    """Regression: ``ScheduleOutcome.num_slots`` is the *surviving* slot count.

    The old expression ``len(alive) or len(slots)`` silently reported the pre-failure total
    whenever the alive count came out falsy, instead of the dead-slot-adjusted number the
    docstring (and the runner's parallel-slots statistic) promise.
    """
    conf = _scan_job()
    splits = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)
    tasks = [MapTask(i, split, conf) for i, split in enumerate(splits)]
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    slots_per_node = cost_model.params.map_slots_per_node

    healthy = tracker.run_map_phase(tasks, Counters())
    assert healthy.num_slots == 4 * slots_per_node

    injector = FailureInjector(loaded_hdfs.cluster, seed=2)
    failure = injector.node_failure(1, at_progress=0.5, expiry_interval_s=5.0)
    failed = tracker.run_map_phase(tasks, Counters(), failure=failure, kill_time_s=0.0)
    loaded_hdfs.cluster.revive_all()
    assert failed.num_slots == 3 * slots_per_node


def test_half_specified_node_kill_fails_closed(loaded_hdfs, cost_model):
    """A failure without a kill time (or the reverse) raises instead of running fault-free."""
    conf = _scan_job()
    splits = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)
    tasks = [MapTask(i, split, conf) for i, split in enumerate(splits)]
    tracker = JobTracker(loaded_hdfs.cluster, loaded_hdfs, cost_model)
    failure = FailureInjector(loaded_hdfs.cluster, seed=2).node_failure(1, at_progress=0.5)
    with pytest.raises(ValueError, match="given together"):
        tracker.run_map_phase(tasks, Counters(), failure=failure)
    with pytest.raises(ValueError, match="given together"):
        tracker.run_map_phase(tasks, Counters(), kill_time_s=1.0)
    assert loaded_hdfs.cluster.node(1).is_alive


# --------------------------------------------------------------------------- shuffle / reduce
def test_reduce_phase_groups_and_sorts(loaded_hdfs, cost_model):
    def reducer(key, values):
        return [(key, sum(values))]

    conf = JobConf(name="agg", input_path="/data/simple", reducer=reducer, num_reduce_tasks=2)
    map_output = emitted([("a", 1), ("b", 1), ("a", 2), ("c", 5)])
    counters = Counters()
    result = run_reduce_phase(map_output, conf, loaded_hdfs.cluster, cost_model, counters)
    assert dict(result.output) == {"a": 3, "b": 1, "c": 5}
    assert result.duration_s > 0
    assert result.num_reduce_tasks == 2
    assert counters.value(Counters.REDUCE_INPUT_RECORDS) == 4
    assert counters.value(Counters.REDUCE_OUTPUT_RECORDS) == 3


def test_reduce_phase_noop_without_reducer(loaded_hdfs, cost_model):
    conf = JobConf(name="maponly", input_path="/data/simple")
    map_output = emitted([("a", 1)])
    result = run_reduce_phase(map_output, conf, loaded_hdfs.cluster, cost_model, Counters())
    assert result.output == [("a", 1)]
    assert result.duration_s == 0.0


def test_reduce_phase_without_reducer_refuses_further_map_outputs(loaded_hdfs, cost_model):
    """Without a reducer there is nothing to join the inputs with: the second one used to be
    dropped without a word, and the first passed through as if it were the whole answer."""
    conf = JobConf(name="maponly", input_path="/data/simple")
    counters = Counters()
    for more in ([("b", 2)], []):
        with pytest.raises(ValueError, match="no reducer"):
            run_reduce_phase(
                emitted([("a", 1)]), conf, loaded_hdfs.cluster, cost_model, counters, emitted(more)
            )
    assert counters.as_dict() == {}


def test_reduce_phase_hands_each_key_one_run_per_input(loaded_hdfs, cost_model):
    """Arrival order within an input, ``()`` where an input lacks the key, the first of equal
    key objects, one call per distinct key — in partition, then ``repr`` order."""
    calls = []

    def reducer(key, *values):
        calls.append((repr(key), values))
        return [(key, len(values))]

    conf = JobConf(name="join", input_path="/data/simple", reducer=reducer, num_reduce_tasks=1)
    first = emitted([(2, "a"), (0.0, "b"), (2, "c")])
    second = emitted([(-0.0, "x"), (3, "y"), (2, "z"), (0.0, "w")])
    third = emitted([(3, "q")])
    counters = Counters()
    result = run_reduce_phase(
        first, conf, loaded_hdfs.cluster, cost_model, counters, second, third
    )
    assert calls == [
        ("0.0", (["b"], ["x", "w"], ())),
        ("2", (["a", "c"], ["z"], ())),
        ("3", ((), ["y"], ["q"])),
    ]
    assert result.keys == [0.0, 2, 3]
    assert counters.as_dict() == {"REDUCE_INPUT_RECORDS": 8, "REDUCE_OUTPUT_RECORDS": 3}


# --------------------------------------------------------------------------- runner
def test_runner_end_to_end_map_only(loaded_hdfs, cost_model, simple_records):
    runner = MapReduceRunner(loaded_hdfs, cost_model)
    result = runner.run(_scan_job())
    assert result.num_map_tasks == 6
    assert len(result.output) == len(simple_records)
    assert result.runtime_s > result.map_phase_s
    assert result.runtime_s >= cost_model.job_startup()
    assert result.overhead_s > 0
    assert result.ideal_time_s == pytest.approx(
        result.num_map_tasks / (4 * cost_model.params.map_slots_per_node) * result.avg_record_reader_s
    )
    summary = result.summary()
    assert summary["map_tasks"] == 6


def test_runner_with_reducer_aggregates(loaded_hdfs, cost_model, simple_records):
    def mapper(key, line):
        return [(line.split("|")[1], 1)]

    def reducer(key, values):
        return [(key, sum(values))]

    conf = JobConf(
        name="wordcount",
        input_path="/data/simple",
        mapper=mapper,
        reducer=reducer,
        num_reduce_tasks=2,
        input_format=TextInputFormat(),
    )
    runner = MapReduceRunner(loaded_hdfs, cost_model)
    result = runner.run(conf)
    assert sum(count for _, count in result.output) == len(simple_records)
    assert result.reduce_phase_s > 0


def test_runner_failover_preserves_results(loaded_hdfs, cost_model, simple_records):
    runner = MapReduceRunner(loaded_hdfs, cost_model)
    baseline = runner.run(_scan_job())
    injector = FailureInjector(loaded_hdfs.cluster, seed=2)
    failure = injector.node_failure(1, at_progress=0.5, expiry_interval_s=5.0)
    failed = runner.run(_scan_job(), failure=failure)
    assert loaded_hdfs.cluster.node(1).is_alive  # revived afterwards
    assert sorted(map(repr, failed.records)) == sorted(map(repr, baseline.records))
    assert failed.runtime_s >= baseline.runtime_s
    assert failed.failure_node == 1


def test_failure_after_the_last_attempt_never_strikes(loaded_hdfs, cost_model):
    """A kill scheduled at 100% progress finds nothing running: no node dies, none is reported."""
    runner = MapReduceRunner(loaded_hdfs, cost_model)
    baseline = runner.run(_scan_job())
    failure = FailureInjector(loaded_hdfs.cluster, seed=2).node_failure(1, at_progress=1.0)
    late = runner.run(_scan_job(), failure=failure)
    assert late.runtime_s == baseline.runtime_s
    assert late.rescheduled_tasks == 0 and late.failure_node is None
    assert late.counters.as_dict() == baseline.counters.as_dict()


def test_runner_failover_near_end_of_job(loaded_hdfs, cost_model):
    runner = MapReduceRunner(loaded_hdfs, cost_model)
    injector = FailureInjector(loaded_hdfs.cluster, seed=2)
    failure = injector.node_failure(0, at_progress=0.95, expiry_interval_s=2.0)
    baseline = runner.run(_scan_job())
    failed = runner.run(_scan_job(), failure=failure)
    assert sorted(map(repr, failed.records)) == sorted(map(repr, baseline.records))
