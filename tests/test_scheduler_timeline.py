"""Timeline fingerprint of the map-phase scheduling loop.

Every combination of the :class:`~repro.mapreduce.job_tracker.ConcurrencyPolicy` knobs is run
under every fault plan (none, a straggler, a node kill, doomed attempts, all three) against one
fixed four-job batch, plus a serial node-kill phase and one index-aware HAIL job.  Each row
records, per job, the admission/launch/finish instants, interleaving, deadline verdict and
alive slots; per accepted attempt, its task, node, start, finish and attempt number; and the
full counter bag.  The digest of all rows is pinned, so a refactor of the loop that changes
*which* slot runs *which* attempt *when* — even one that keeps every answer and invariant —
fails here.  The matrix is also checked to be non-vacuous: every mechanism it covers fires.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.cluster import Cluster, CostModel, CostParameters, HardwareProfile
from repro.cluster.failure import ConcurrentChaos, FailureEvent, TaskFailureSpec
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.hdfs import DataFile, Hdfs, HdfsClient, StandardUploadPipeline
from repro.layouts import FieldType, Schema
from repro.mapreduce import Counters, JobConf, TextInputFormat
from repro.mapreduce.job_tracker import ConcurrencyPolicy, ConcurrentJob, JobTracker
from repro.mapreduce.task import MapTask
from repro.workloads.query import Query

#: Digest of every row below, captured before the loop was restructured.
EXPECTED_DIGEST = "f04a93bd53e4940a"
EXPECTED_ROWS = 642

#: The node the kill plans take down (revived after every row).
_KILLED_NODE = 1


def _environment():
    cluster = Cluster.homogeneous(4, HardwareProfile.physical(), seed=1)
    cost = CostModel(CostParameters(data_scale=1.0, variance_seed=11))
    hdfs = Hdfs(cluster, cost)
    schema = Schema.of(
        ("id", FieldType.INT),
        ("name", FieldType.STRING),
        ("score", FieldType.DOUBLE),
        name="simple",
    )
    records = [(i, f"name-{i % 7}", round(i * 1.5, 2)) for i in range(120)]
    client = HdfsClient(hdfs, cost, StandardUploadPipeline(hdfs, cost), client_node=0)
    client.upload(DataFile("/data/simple", schema, records), rows_per_block=10)
    conf = JobConf(
        name="scan",
        input_path="/data/simple",
        mapper=lambda key, line: [(line.split("|")[1], 1)],
        input_format=TextInputFormat(),
    )
    splits = conf.input_format.get_splits(hdfs, conf, cost)
    return hdfs, cost, conf, splits


_HDFS, _COST, _CONF, _SPLITS = _environment()


def _tasks() -> list[MapTask]:
    return [MapTask(i, split, _CONF) for i, split in enumerate(_SPLITS)]


def _batch() -> list[ConcurrentJob]:
    """Two jobs of tenant ``a`` at t=0 (one with a deadline), then ``b`` at t=4 and t=6."""
    return [
        ConcurrentJob(_tasks(), Counters(), tenant="a"),
        ConcurrentJob(_tasks(), Counters(), tenant="a", deadline_s=9.0),
        ConcurrentJob(_tasks(), Counters(), tenant="b", submit_s=4.0),
        ConcurrentJob(_tasks(), Counters(), tenant="b", submit_s=6.0),
    ]


def _kill() -> FailureEvent:
    return FailureEvent(node_id=_KILLED_NODE, at_progress=0.5, expiry_interval_s=5.0)


_DOOMED = (TaskFailureSpec(0, 0, attempts=2), TaskFailureSpec(2, 3))

#: The fault axis: none, a straggler, a node kill, doomed attempts, and all three.
_FAULTS = {
    "none": dict,
    "straggler": lambda: dict(slow_nodes={1: 6.0}),
    "kill": lambda: dict(node_failure=_kill(), kill_time_s=7.0),
    "doomed": lambda: dict(task_failures=_DOOMED),
    "all": lambda: dict(
        node_failure=_kill(), kill_time_s=7.0, task_failures=_DOOMED, slow_nodes={1: 6.0}
    ),
}


def _policies():
    for jobs, queue, quota, spec, preempt, weights, admission in itertools.product(
        (1, 3), ("fair", "fifo"), (None, 2), (False, True), (False, True),
        (None, {"a": 2}), (None, 1),
    ):
        yield ConcurrencyPolicy(
            max_concurrent_jobs=jobs,
            queue_policy=queue,
            tenant_slot_quota=quota,
            speculative_execution=spec,
            preemption=preempt,
            tenant_weights=weights,
            tenant_admission_limit=admission,
        )


def _attempts(outcome) -> tuple:
    return tuple(
        (a.task.task_id, a.node_id, repr(a.start_s), repr(a.finish_s), a.attempt)
        for a in outcome.scheduled
    )


def _counters(counters: Counters) -> tuple:
    return tuple(sorted(counters.as_dict().items()))


def _batch_row(policy, fault_name) -> tuple[tuple, list[Counters]]:
    jobs = _batch()
    chaos = ConcurrentChaos(**_FAULTS[fault_name]())
    try:
        outcomes = JobTracker(_HDFS.cluster, _HDFS, _COST).run_concurrent_map_phases(
            jobs, policy, chaos
        )
    finally:
        _HDFS.cluster.revive_all()
    row = (repr(policy), fault_name) + tuple(
        (
            repr(o.admitted_s), repr(o.first_launch_s), repr(o.finish_s), o.interleaved,
            o.deadline_met, o.outcome.num_slots, o.outcome.rescheduled, o.outcome.failure_node,
            _attempts(o.outcome), _counters(job.counters),
        )
        for job, o in zip(jobs, outcomes)
    )
    return row, [job.counters for job in jobs]


def _serial_kill_row() -> tuple[tuple, list[Counters]]:
    counters = Counters()
    try:
        outcome = JobTracker(_HDFS.cluster, _HDFS, _COST).run_map_phase(
            _tasks(), counters, failure=_kill(), kill_time_s=3.0
        )
    finally:
        _HDFS.cluster.revive_all()
    row = (
        "serial-kill", repr(outcome.makespan_s), outcome.num_slots, outcome.rescheduled,
        outcome.failure_node, _attempts(outcome), _counters(counters),
    )
    return row, [counters]


def _hail_row() -> tuple[tuple, list[Counters]]:
    config = HailConfig(
        index_attributes=("f1",), functional_partition_size=1, index_aware_scheduling=True
    )
    cost = CostModel(CostParameters(enable_variance=False, data_scale=5000.0))
    system = HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=cost)
    system.upload("/t", SyntheticGenerator(seed=3).generate(400), SYNTHETIC_SCHEMA,
                  rows_per_block=50)
    query = Query(
        name="q", predicate=Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 10),
        projection=("f1", "f2"), description="",
    )
    result = system.run_query(query, "/t")
    counters = result.job.counters
    return ("hail-index-aware", repr(result.runtime_s), _counters(counters)), [counters]


@pytest.fixture(scope="module")
def matrix() -> tuple[list[tuple], list[Counters]]:
    """Every row of the fingerprint, and every counter bag the rows were built from."""
    built = [_batch_row(policy, fault) for policy in _policies() for fault in _FAULTS]
    built += [_serial_kill_row(), _hail_row()]
    return [row for row, _ in built], [bag for _, bags in built for bag in bags]


def test_timeline_fingerprint_is_unchanged(matrix):
    rows, _ = matrix
    assert len(rows) == EXPECTED_ROWS
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert digest == EXPECTED_DIGEST


@pytest.mark.parametrize(
    "counter",
    [
        Counters.PREEMPT_ATTEMPTS_KILLED,
        Counters.SPEC_ATTEMPTS_LAUNCHED,
        Counters.RESCHEDULED_MAP_TASKS,
        Counters.TENANT_ADMISSION_WAITS,
        Counters.TENANT_QUOTA_DEFERRALS,
        Counters.DEADLINE_JOBS_MISSED,
        Counters.SCHED_INDEX_LOCAL,
    ],
)
def test_matrix_exercises_every_mechanism(matrix, counter):
    _, bags = matrix
    assert sum(bag.value(counter) for bag in bags) > 0
