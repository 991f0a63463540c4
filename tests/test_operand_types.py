"""A clause whose operand cannot be compared with its column is refused before any job runs.

Comparing a STRING column with a number, an INT column with a string or a DATE column with a
string (or a ``datetime``) used to raise a bare ``TypeError`` from inside a map task.  Every
system now refuses it with :class:`~repro.api.UnsupportedExpressionError` where the query
first meets its file's schema (``BaseSystem._lower``), so no task is launched; operands of a
column's own kind still run, with the same answer on every system.
"""

from __future__ import annotations

from datetime import date, datetime

import pytest

from repro.api import BatchExecutionError, Session, UnsupportedExpressionError, col
from repro.hail.config import HailConfig
from repro.mapreduce.task import MapTask
from repro.query.schema import FieldType, Schema

_SCHEMA = Schema.of(
    ("k", FieldType.INT),
    ("s", FieldType.STRING),
    ("d", FieldType.DATE),
    ("x", FieldType.DOUBLE),
    name="mixed",
)
_ROWS = [(i, str(i % 10), date(2020, 1, 1 + i % 28), i / 4) for i in range(240)]
_SYSTEMS = ("Hadoop", "HAIL")

_REFUSED = [
    (col("s") < 5, r"'s' \(string\) with 5 \(int\)"),
    (col("k") < "5", r"'k' \(int\) with '5' \(str\)"),
    (col("d") < "2020-01-05", r"'d' \(date\) with '2020-01-05' \(str\)"),
    (col("d") < datetime(2020, 1, 5), r"'d' \(date\) with .* \(datetime\)"),
    (col("x").between(1, "9"), r"'x' \(double\) with '9' \(str\)"),
]


@pytest.fixture
def launched(monkeypatch) -> list:
    """Every map task run, on any system."""
    runs: list = []
    original = MapTask.run

    def counting(self, *args, **kwargs):
        runs.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MapTask, "run", counting)
    return runs


def _deploy(**hail):
    config = HailConfig.for_attributes(("k",)).with_concurrency(**hail)
    session = Session.deploy(nodes=3, systems=_SYSTEMS, hail_config=config)
    return session, session.upload("/mixed", _ROWS, _SCHEMA, rows_per_block=40)


@pytest.mark.parametrize("system", _SYSTEMS)
@pytest.mark.parametrize("expression, message", _REFUSED)
def test_a_mistyped_operand_is_refused_before_any_task(launched, system, expression, message):
    session, data = _deploy()
    with pytest.raises(UnsupportedExpressionError, match=message):
        data.where(expression).collect(system=system)
    assert launched == []
    assert session.stats(system).launched_map_tasks == 0


@pytest.mark.parametrize("system", _SYSTEMS)
def test_a_mistyped_join_side_is_refused_before_the_other_side_runs(launched, system):
    session, data = _deploy()
    right = data.where(col("s") < 5)
    with pytest.raises(UnsupportedExpressionError, match="'s'"):
        data.where(col("k") < 50).join(right, on="k").collect(system=system)
    assert launched == []


def test_a_mistyped_query_stops_its_whole_interleaved_batch_and_is_named(launched):
    session, data = _deploy(max_jobs=2)
    data.where(col("k") < 50).submit(system="HAIL")
    data.where(col("k") < "50").submit(system="HAIL")
    with pytest.raises(BatchExecutionError) as caught:
        session.run_batch()
    assert caught.value.failed_index == 1 and caught.value.partial.results == []
    assert isinstance(caught.value.__cause__.cause, UnsupportedExpressionError)
    assert launched == []


@pytest.mark.parametrize(
    "expression, keep",
    [
        (col("x") < 20, lambda row: row[3] < 20),  # an int on a DOUBLE column
        (col("k") <= 7.5, lambda row: row[0] <= 7.5),  # a float on an INT column
        (col("s") == "3", lambda row: row[1] == "3"),
        (col("d").between(date(2020, 1, 3), date(2020, 1, 4)), lambda row: row[2].day in (3, 4)),
    ],
)
def test_operands_of_the_columns_kind_still_run_alike_everywhere(expression, keep):
    _, data = _deploy()
    expected = sorted(row for row in _ROWS if keep(row))
    assert expected
    for system in _SYSTEMS:
        assert sorted(data.where(expression).collect(system=system).records) == expected
