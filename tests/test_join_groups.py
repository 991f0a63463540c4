"""Joins work on key groups: keyed scans, a shuffle that cogroups, one ordered emission.

Four kinds of test around the join's finish step (``engine/operators/join.py``) and the
shuffle it shares with every reducing job (``mapreduce/shuffle.py``):

- **the key rule** — where equal keys print differently (``0.0 == -0.0``) a joined row carries
  its *left* row's key, whatever the strategy or the system;
- **differential** — the ordered emission against the nested loop plus one global
  ``sorted(key=repr)`` it replaced (kept below as the reference), compared as lists of
  ``repr`` so that ``-0.0`` cannot pass for ``0.0``;
- **call-shape guards** — ``repr`` is called per *input* row and key, never per joined row;
  the hash strategy hands both scan jobs' output lists, as they are, to one
  ``run_reduce_phase`` whose reducer sees each key group once and no tagged value;
- **pins** — a reduce phase over one input returns what it returned before it could take
  several (literals captured at 984c188, before ``src/`` was edited).
"""

from __future__ import annotations

from datetime import date
from types import SimpleNamespace
from unittest.mock import Mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.operators.join as join_module
import repro.mapreduce.runner as runner_module
import repro.mapreduce.shuffle as shuffle_module
from repro.api import Session, col
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.hail import HailConfig
from repro.layouts.schema import FieldType, Schema
from repro.mapreduce import JobConf
from repro.mapreduce.counters import Counters
from repro.mapreduce.shuffle import run_reduce_phase

_SYSTEMS = ("HAIL", "Hadoop++", "Hadoop")


def _deploy(attribute: str, systems=_SYSTEMS) -> Session:
    """A four-node deployment whose HAIL and Hadoop++ sides are indexed on ``attribute``."""
    config = HailConfig.for_attributes((attribute,), functional_partition_size=1)
    return Session.deploy(
        nodes=4, systems=systems, hail_config=config, trojan_attribute=attribute
    )


def _cluster_and_cost() -> tuple[Cluster, CostModel]:
    return Cluster.homogeneous(4, seed=1), CostModel(CostParameters(enable_variance=False))


# --------------------------------------------------------------------------- the key rule
def test_a_joined_row_carries_its_left_rows_key_on_every_strategy_and_system():
    """At 984c188 the merge join emitted the right row's key and the hash join whichever key
    the shuffle's dict saw first, so strategies and systems disagreed on ``0.0`` / ``-0.0``."""
    schema = Schema.of(("k", FieldType.DOUBLE), ("v", FieldType.INT), name="zeros")
    session = _deploy("k")
    left = session.upload(
        "/zeros/left", [(0.0, 1), (-0.0, 2), (1.5, 3), (-0.0, 4)], schema, rows_per_block=2
    )
    right = session.upload(
        "/zeros/right", [(-0.0, 10), (0.0, 20), (1.5, 30)], schema, rows_per_block=2
    )
    expected = [
        "(-0.0, 2, 10)", "(-0.0, 2, 20)", "(-0.0, 4, 10)", "(-0.0, 4, 20)",
        "(0.0, 1, 10)", "(0.0, 1, 20)", "(1.5, 3, 30)",
    ]  # fmt: skip
    merged = left.join(right, on="k").collect(system="HAIL")
    assert merged.job.counters.value(Counters.JOIN_MERGE_JOINS) == 1
    assert list(map(repr, merged.records)) == expected
    for system in _SYSTEMS:
        hashed = left.join(right, on="k", strategy="hash").collect(system=system)
        assert hashed.job.counters.value(Counters.JOIN_HASH_JOINS) == 1
        assert list(map(repr, hashed.records)) == expected, system
        assert hashed.job.output == [(None, row) for row in hashed.records]


# --------------------------------------------------------------------------- differential
def _reference_join(left_rows: list[tuple], right_rows: list[tuple]) -> list[tuple]:
    """The finish step as it stood at 984c188, with the left row's key: a nested loop over
    both sides, then one global sort of the materialised join by ``repr``."""
    joined = [left + right[1:] for left in left_rows for right in right_rows if left[0] == right[0]]
    return sorted(joined, key=repr)


def _emit(strategy: str, left_rows: list[tuple], right_rows: list[tuple]):
    """``(rows, seconds, counters)`` of one strategy's finish over the side scans' pairs."""
    cluster, cost = _cluster_and_cost()
    system = SimpleNamespace(cluster=cluster, cost=cost)
    left = [(row[0], row) for row in left_rows]
    right = [(row[0], row[1:]) for row in right_rows]
    joined, counters = join_module._JoinedGroups(), Counters()
    if strategy == "merge":
        seconds = join_module._merge_join(system, left, right, joined)
    else:
        query = SimpleNamespace(name="j", left_path="/left")
        seconds = join_module._hash_join(system, query, left, right, counters, joined)
    return joined.rows(), seconds, counters


_NAN = float("nan")
#: Small pools, so keys match and rows repeat; each holds the orders ``repr`` gets "wrong":
#: ``"1," < "12"``, ``"-" < "0"``, ``"1.5" < "1.55"``, ``"1e+20"``, quotes that switch the
#: string delimiter, separators and parentheses inside a value, the empty string.
_POOLS = {
    "int": st.sampled_from([-12, -1, 0, 1, 2, 12, 100]),
    "double": st.sampled_from([-0.0, 0.0, 1.5, 1.55, -1.5, 1e20, 2.0]),
    "string": st.text(alphabet="ab'\",()\\-1", max_size=3),
    "date": st.sampled_from(
        [date(2012, 1, 5), date(2012, 1, 15), date(2012, 11, 5), date(1999, 12, 31)]
    ),
}
#: A non-key DOUBLE column may also hold NaN: it equals nothing, not even a copy of its row.
_COLUMN_POOLS = {**_POOLS, "double": st.one_of(_POOLS["double"], st.just(_NAN))}


@st.composite
def _sides(draw):
    """Two row lists sharing a key type, arities 0-3 each, with repeated rows on both."""
    kinds = sorted(_POOLS)
    key = _POOLS[draw(st.sampled_from(kinds))]
    sides = []
    for _ in range(2):
        column_kinds = draw(st.lists(st.sampled_from(kinds), max_size=3))
        columns = [_COLUMN_POOLS[kind] for kind in column_kinds]
        rows = draw(st.lists(st.tuples(key, *columns), max_size=7))
        if rows:
            rows += draw(st.lists(st.sampled_from(rows), max_size=4))
        sides.append(rows)
    return sides


@settings(max_examples=400, deadline=None)
@given(sides=_sides())
# Copies of a left row interleave with the right side: L, L x R1, R2 is LR1, LR1, LR2, LR2.
@example(sides=([(1, 7), (1, 7)], [(1, 3), (1, 4)]))
# ... and copies are rows that *print* the same: (0.0, 7) == (-0.0, 7) are two rows.
@example(sides=([(0.0, 7), (-0.0, 7), (0.0, 7)], [(0.0, 3), (-0.0, 4)]))
# Equal keys that print differently are one group, and other keys sort between them.
@example(sides=([(0.0, 1), (-0.0, 2), (-1.5, 3), (-0.0, 4)], [(-0.0, 10), (0.0, 20), (-1.5, 30)]))
@example(sides=([(0.0,), (-1.5,), (-0.0,)], [(0.0,), (-1.5,), (0.0,)]))
@example(sides=([(1, _NAN), (1, _NAN)], [(1, 3), (1, 4)]))
def test_the_ordered_emission_is_exactly_the_sorted_nested_loop(sides):
    left_rows, right_rows = sides
    want = list(map(repr, _reference_join(left_rows, right_rows)))
    pairs = len(left_rows) + len(right_rows)
    rows, seconds, counters = _emit("merge", left_rows, right_rows)
    assert list(map(repr, rows)) == want
    assert seconds > 0.0 and counters.as_dict() == {}  # no shuffle: a CPU-only charge
    rows, seconds, counters = _emit("hash", left_rows, right_rows)
    assert list(map(repr, rows)) == want
    # A one-sided hash join still pays and counts the shuffle; an empty one pays nothing.
    assert (seconds > 0.0) == (pairs > 0)
    expected = {Counters.REDUCE_INPUT_RECORDS: pairs, Counters.REDUCE_OUTPUT_RECORDS: len(want)}
    assert counters.as_dict() == {name: value for name, value in expected.items() if value}


# --------------------------------------------------------------------------- call-shape guards
_FAN_SCHEMA = Schema.of(
    ("k", FieldType.INT), ("a", FieldType.INT), ("b", FieldType.INT), name="fan"
)
_KEYS, _LEFT_ROWS, _RIGHT_ROWS = 50, 400, 200


def _fan_out_join(session: Session, strategy=None):
    """An 8 x 4 fan-out on each of 50 keys: 400 and 200 distinct rows, 1 600 joined rows."""
    left = session.upload(
        "/fan/left",
        [(i % _KEYS, i, i * 7 % 13) for i in range(_LEFT_ROWS)],
        _FAN_SCHEMA,
        rows_per_block=50,
    )
    right = session.upload(
        "/fan/right",
        [(i % _KEYS, 1000 + i, i % 3) for i in range(_RIGHT_ROWS)],
        _FAN_SCHEMA,
        rows_per_block=50,
    )
    return left.select("k", "a").join(right.select("k", "b"), on="k", strategy=strategy)


@pytest.mark.parametrize("strategy", ["merge", "hash"])
def test_a_join_calls_repr_per_input_row_never_per_joined_row(monkeypatch, strategy):
    """984c188 sorted the materialised join: one ``repr`` per joined row, 1 600 here."""
    dataset = _fan_out_join(_deploy("k", systems=("HAIL",)), strategy)
    calls = Mock(side_effect=repr)
    for module in (join_module, shuffle_module):
        monkeypatch.setattr(module, "repr", calls, raising=False)
    result = dataset.collect()
    assert len(result.records) == 8 * 4 * _KEYS
    assert result.records == sorted(result.records, key=repr)
    assert result.job.counters.value(f"JOIN_{strategy.upper()}_JOINS") == 1
    assert 0 < calls.call_count <= _LEFT_ROWS + _RIGHT_ROWS + 4 * _KEYS


def test_the_hash_join_hands_both_scan_outputs_as_they_are_to_one_cogrouping_shuffle(monkeypatch):
    """984c188 re-listed both sides into ``(key, ("L" | "R", rest))`` pairs first."""
    session = _deploy("k", systems=("Hadoop",))
    dataset = _fan_out_join(session, "hash")
    system = session.system("Hadoop")
    scan_jobs, phases, groups = [], [], []

    def run_job(jobconf, failure=None, run=system.run_job):
        scan_jobs.append(run(jobconf, failure))
        return scan_jobs[-1]

    def reduce_phase(*args, run=join_module.run_reduce_phase):
        jobconf = args[1]

        def reducer(key, *values, reduce=jobconf.reducer):
            groups.append((key, values))
            return reduce(key, *values)

        jobconf.reducer = reducer
        phases.append(args)
        return run(*args)

    system.run_job = run_job
    monkeypatch.setattr(join_module, "run_reduce_phase", reduce_phase)
    result = dataset.collect()
    assert len(result.records) == 8 * 4 * _KEYS
    (args,) = phases  # exactly one shuffle
    left_job, right_job = scan_jobs
    for job in (left_job, right_job):
        assert any(arg is job.output for arg in args), "a scan's output list, by identity"
    assert sorted(key for key, _ in groups) == list(range(_KEYS))  # once per distinct key
    shuffled = [value for _, values in groups for side in values for value in side]
    assert len(shuffled) == _LEFT_ROWS + _RIGHT_ROWS
    assert not any(value[:1] in (("L",), ("R",)) for value in shuffled)
    counters = result.job.counters
    assert counters.value(Counters.REDUCE_INPUT_RECORDS) == _LEFT_ROWS + _RIGHT_ROWS
    assert counters.value(Counters.REDUCE_OUTPUT_RECORDS) == len(result.records)
    assert counters.value(Counters.MAP_OUTPUT_RECORDS) == _LEFT_ROWS + _RIGHT_ROWS


# --------------------------------------------------------------------------- single-input pins
#: The group-by job of ``tests/test_operator_jobs.py`` on its 400-row left table: what
#: ``run_reduce_phase`` returned at 984c188 on all three systems, partition by partition.
_GROUPS = [
    ((0,), (0, 26, 4952793, 447697.8076923077)),
    ((3,), (3, 27, 6802988, 457133.1111111111)),
    ((6,), (6, 21, 6522493, 488680.38095238095)),
    ((1,), (1, 32, 8353373, 542525.6875)),
    ((4,), (4, 34, 9322076, 530753.4117647059)),
    ((2,), (2, 31, 7771584, 398227.5483870968)),
    ((5,), (5, 36, 8587331, 468086.8611111111)),
]
#: ``combiner -> (pairs shuffled, repr(duration_s))``, the same on every system.
_GROUP_PHASES = {True: (54, "3.6003125959591324"), False: (207, "3.6003514311634013")}


@pytest.fixture(scope="module")
def grouped():
    raw = SyntheticGenerator(seed=11).generate(400)
    rows = [(row[0] % 50, row[1], row[2] % 7) + row[3:] for row in raw]
    left = _deploy("f1").upload("/pins/left", rows, SYNTHETIC_SCHEMA, rows_per_block=50)
    half = col("f2") < VALUE_RANGE // 2
    return left.where(half).group_by("f3").agg("count(*)", "sum(f2)", "avg(f4)")


@pytest.mark.parametrize("combiner", [True, False])
@pytest.mark.parametrize("system", _SYSTEMS)
def test_a_group_by_reduce_phase_returns_what_it_did_before_it_could_cogroup(
    monkeypatch, grouped, system, combiner
):
    phases = []

    def reduce_phase(map_output, jobconf, cluster, cost, counters):
        phase = run_reduce_phase(map_output, jobconf, cluster, cost, counters)
        phases.append((len(map_output), phase))
        return phase

    monkeypatch.setattr(runner_module, "run_reduce_phase", reduce_phase)
    result = grouped.with_combiner(combiner).collect(system=system)
    ((pairs, phase),) = phases
    assert (pairs, repr(phase.duration_s)) == _GROUP_PHASES[combiner]
    assert phase.output == _GROUPS and phase.num_reduce_tasks == 4
    assert result.job.output is phase.output
    assert result.job.counters.value(Counters.REDUCE_INPUT_RECORDS) == pairs
    assert result.job.counters.value(Counters.REDUCE_OUTPUT_RECORDS) == len(_GROUPS)


def test_a_user_reducer_over_one_input_sees_the_groups_in_the_order_it_always_did():
    def reducer(key, values):
        return None if key % 3 == 0 else [(key, sum(values)), (-key, len(values))]

    cluster, cost = _cluster_and_cost()
    conf = JobConf(name="user", input_path="/none", reducer=reducer, num_reduce_tasks=3)
    counters = Counters()
    pairs = [((i * 7) % 11 - 4, i) for i in range(40)]  # keys -4..6, negative hashes included
    phase = run_reduce_phase(pairs, conf, cluster, cost, counters)
    assert phase.output == [
        (-1, 74), (1, 4), (-2, 86), (2, 4), (1, 54), (-1, 3), (4, 60),
        (-4, 3), (-4, 66), (4, 4), (2, 82), (-2, 4), (5, 90), (-5, 4),
    ]  # fmt: skip
    assert (repr(phase.duration_s), phase.num_reduce_tasks) == ("3.600312458270396", 3)
    assert counters.as_dict() == {"REDUCE_INPUT_RECORDS": 40, "REDUCE_OUTPUT_RECORDS": 14}

    # String keys hash differently in every process: their output is pinned as a multiset.
    words = "the quick brown fox jumps over the lazy dog the fox".split()
    conf = JobConf(
        name="wc", input_path="/none", reducer=lambda k, v: [(k, sum(v))], num_reduce_tasks=4
    )
    counters = Counters()
    phase = run_reduce_phase([(word, 1) for word in words], conf, cluster, cost, counters)
    assert sorted(phase.output) == [
        ("brown", 1), ("dog", 1), ("fox", 2), ("jumps", 1),
        ("lazy", 1), ("over", 1), ("quick", 1), ("the", 3),
    ]  # fmt: skip
    assert repr(phase.duration_s) == "3.600302331864149"
    assert counters.as_dict() == {"REDUCE_INPUT_RECORDS": 11, "REDUCE_OUTPUT_RECORDS": 8}


def test_a_job_without_a_reducer_or_without_pairs_pays_no_reduce_phase():
    cluster, cost = _cluster_and_cost()
    counters = Counters()
    pairs = [(1, "a"), (2, "b")]
    mapped = run_reduce_phase(pairs, JobConf(name="m", input_path="/none"), cluster, cost, counters)
    assert mapped.output == pairs and mapped.output is not pairs
    reducing = JobConf(name="r", input_path="/none", reducer=lambda k, *v: [(k, v)])
    empty = run_reduce_phase([], reducing, cluster, cost, counters, [])
    assert (mapped.duration_s, empty.duration_s, empty.output) == (0.0, 0.0, [])
    assert counters.as_dict() == {}
    # A further input alone is a phase; the input without the key contributes no values.
    phase = run_reduce_phase([], reducing, cluster, cost, counters, [(7, "x")])
    assert phase.output == [(7, ((), ["x"]))] and phase.duration_s > 0.0
