"""Each job binds its query once, in its split phase: per-block execution does only per-block work.

Every input format's split phase binds the job's ``@HailQuery`` to the file's schema once
(``PhysicalPlanner.query_frame`` → :class:`~repro.engine.planner.BoundQuery`, carried on the
job's :class:`~repro.engine.planner.QueryPlan`), on HAIL, Hadoop++ and stock Hadoop alike;
record readers bind nothing (a stock text block is planned with no binding at all), re-planning,
the execution marks and the executor read the bound fields instead of re-deriving predicate,
projection and column lists per block, and the executed plan a job reports (``JobResult.plan``)
is framed from that same binding.  The executor trusts the bound fields only while the
payload's schema is the very object they were bound to, and rebinds from the annotation
otherwise (fail closed).
"""

from __future__ import annotations

import copy
import math
from datetime import date

import pytest

import repro.query.annotation as annotation_module
from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine.access_path import AccessPath
from repro.engine.executor import VectorizedExecutor
from repro.engine.planner import BoundQuery, PhysicalPlanner
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.hail.input_format import HailInputFormat
from repro.hail.system import HailSystem
from repro.mapreduce import JobConf
from repro.query.annotation import HailQuery, hail_query
from repro.query.predicate import Comparison, Operator, Predicate
from repro.query.schema import Schema
from repro.workloads import bob_queries

_PATH = "/uv"
_BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")


def _bob_system(num_rows: int) -> HailSystem:
    """Bob's deployment over ``num_rows`` rows: 100-row blocks, so ``num_rows / 100`` blocks."""
    system = HailSystem(
        Cluster.homogeneous(4, seed=5),
        config=HailConfig.for_attributes(_BOB_INDEXES),
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    system.upload(_PATH, _rows(num_rows), USERVISITS_SCHEMA, rows_per_block=100)
    return system


def _rows(num_rows: int) -> list[tuple]:
    return UserVisitsGenerator(seed=9).generate(num_rows)


def _brute_force(num_rows: int, predicate, projection) -> list[tuple]:
    """The answer straight from the ``num_rows`` uploaded records, sorted."""
    schema = USERVISITS_SCHEMA
    rows = [
        row for row in _rows(num_rows) if predicate is None or predicate.matches(row, schema)
    ]
    if projection is not None:
        positions = [schema.index_of(name) for name in projection]
        rows = [tuple(row[i] for i in positions) for row in rows]
    return sorted(rows)


def _counting(monkeypatch, counts: dict, owner, name: str) -> None:
    """Count every call of ``owner.name`` into ``counts[name]``."""
    original = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


# ------------------------------------------------------------------ call-count guard
def _per_job_counts(num_rows: int, monkeypatch) -> list[dict]:
    system = _bob_system(num_rows)
    assert len(system.hdfs.namenode.file_blocks(_PATH)) == num_rows // 100
    counts: dict = {}
    _counting(monkeypatch, counts, HailQuery, "bound_filter")
    _counting(monkeypatch, counts, HailQuery, "projection_names")
    _counting(monkeypatch, counts, Predicate, "attributes")
    _counting(monkeypatch, counts, BoundQuery, "bind")
    per_job = []
    for query in bob_queries():
        counts.update(dict.fromkeys(counts, 0))
        result = system.run_query(query, _PATH)
        assert sorted(result.records) == _brute_force(num_rows, query.predicate, query.projection)
        per_job.append(dict(counts))
    monkeypatch.undo()
    return per_job


def test_the_query_is_bound_per_job_not_per_block(monkeypatch):
    """Bob's five queries bind, parse and resolve the same number of times at 16 and 32
    blocks: nothing of the query is derived again per block."""
    small = _per_job_counts(1600, monkeypatch)
    large = _per_job_counts(3200, monkeypatch)
    assert small == large
    # The split phase's binding, and no other: the executed plan carries the same one.
    assert all(counts["bind"] == 1 for counts in large)


# ------------------------------------------------------------------ one bind per job, every system
def _deploy(system_name: str, num_rows: int = 1600):
    """One of the three systems over Bob's data in 100-row blocks (``num_rows / 100`` blocks);
    Hadoop++'s trojan index is on ``sourceIP``."""
    cluster = Cluster.homogeneous(4, seed=5)
    cost = CostModel(CostParameters(enable_variance=False))
    if system_name == "HAIL":
        return _bob_system(num_rows)
    if system_name == "Hadoop++":
        system = HadoopPlusPlusSystem(cluster, trojan_attribute="sourceIP", cost=cost)
    else:
        system = HadoopSystem(cluster, cost=cost)
    system.upload(_PATH, _rows(num_rows), USERVISITS_SCHEMA, rows_per_block=100)
    return system


_SYSTEMS = ("HAIL", "Hadoop++", "Hadoop")


@pytest.mark.parametrize("system_name", _SYSTEMS)
def test_every_system_binds_each_job_once(system_name, monkeypatch):
    """One ``BoundQuery.bind`` per job on all three systems, 16 blocks each: the split phase's
    (Hadoop++ and stock Hadoop bound 17 times a job, once per reader or block and once more to
    frame the executed plan)."""
    system = _deploy(system_name)
    assert len(system.hdfs.namenode.file_blocks(_PATH)) == 16
    counts: dict = {}
    _counting(monkeypatch, counts, BoundQuery, "bind")
    for query in bob_queries():
        counts["bind"] = 0
        result = system.run_query(query, _PATH)
        assert counts["bind"] == 1, query.name
        assert sorted(result.records) == _brute_force(1600, query.predicate, query.projection)


@pytest.mark.parametrize("system_name", _SYSTEMS)
def test_a_reader_binds_nothing(system_name, monkeypatch):
    """After the split phase, building every split's reader and running its ``batches()``
    binds nothing: the readers take the split phase's binding, or plan a text block unbound."""
    system = _deploy(system_name)
    query = bob_queries()[1]
    jobconf = system._scan_jobconf(query, _PATH)
    input_format = jobconf.input_format
    splits = input_format.get_splits(system.hdfs, jobconf, system.cost)
    counts: dict = {}
    _counting(monkeypatch, counts, BoundQuery, "bind")
    blocks = 0
    for split in splits:
        reader = input_format.create_record_reader(
            split, system.hdfs, jobconf, system.cost, split.locations[0]
        )
        blocks += sum(1 for _ in reader.batches())
    assert blocks == 16
    assert counts["bind"] == 0


@pytest.mark.parametrize("system_name", _SYSTEMS)
def test_the_executed_plan_keeps_the_query(system_name):
    """Every system's executed plan is framed from the query's binding (its filter attributes
    and projection), and a stock text block's plan, made with no binding, names no index
    fallback."""
    system = _deploy(system_name, num_rows=800)
    for query in bob_queries():
        plan = system.run_query(query, _PATH).plan
        frame = system.plan_query(query, _PATH)
        assert plan.filter_attributes == frame.filter_attributes != ()
        assert plan.projection == frame.projection
        assert plan.num_blocks == 8
        if system_name == "Hadoop":
            assert all(block.access_path is AccessPath.FULL_SCAN for block in plan.block_plans)
            assert all(block.fallback_reason is None for block in plan.block_plans)


def test_the_columns_a_scan_reads_have_one_definition():
    """The read-column rule lives on the bound query; the payload no longer carries a copy."""
    assert not hasattr(HailBlock, "columns_to_read")
    bound = BoundQuery.bind(
        HailQuery(filter=Predicate.equals("sourceIP", "1.2.3.4"), projection=("adRevenue",)),
        USERVISITS_SCHEMA,
    )
    names = USERVISITS_SCHEMA.field_names
    assert [names[i] for i in bound.read_indexes(pax_layout=True)] == ["sourceIP", "adRevenue"]
    assert list(bound.read_indexes(pax_layout=False)) == list(range(len(names)))


def test_each_filter_attribute_keeps_its_first_clause():
    """Per filter attribute, named or positional, the bound query holds the first clause on it
    (what an index on it looks up) and whether a sorted run may answer that clause: not when
    an operand is NaN."""
    first = Comparison(3, Operator.BETWEEN, (date(1999, 1, 1), date(2000, 1, 1)))  # visitDate
    nan_operand = Comparison("adRevenue", Operator.GE, (math.nan,))
    again = Comparison("visitDate", Operator.LE, (date(1999, 6, 1),))
    bound = BoundQuery.bind(
        HailQuery(filter=Predicate([first, nan_operand, again])), USERVISITS_SCHEMA
    )
    assert bound.filter_attributes == ("visitDate", "adRevenue")
    assert bound.first_clauses == {
        "visitDate": (first, True),
        "adRevenue": (nan_operand, False),
    }


def test_a_string_filter_is_parsed_once_per_job(monkeypatch):
    """A ``@hail_query("...")`` map function: the split phase parses the filter, and no block
    parses it again."""
    system = _bob_system(1600)
    counts: dict = {}
    _counting(monkeypatch, counts, annotation_module, "parse_predicate")

    @hail_query(filter="@3 between(1999-01-01, 2000-01-01)", projection=["@1", "@4"])
    def bob_map(key, record):
        return None if record.bad else [(None, record.as_tuple())]

    jobconf = JobConf(
        name="bob-string-filter",
        input_path=_PATH,
        mapper=bob_map,
        input_format=HailInputFormat(system.config),
    )
    job = system.run_job(jobconf)
    assert counts["parse_predicate"] == 1
    schema = system.schema_of(_PATH)
    annotation = annotation_module.annotation_of(bob_map)
    expected = _brute_force(
        1600, annotation.bound_filter(schema), annotation.projection_names(schema)
    )
    assert sorted(row for _, row in job.output) == expected
    assert job.num_map_tasks < len(system.hdfs.namenode.file_blocks(_PATH))


# ------------------------------------------------------------------ fail closed
def _equal_copy(schema: Schema) -> Schema:
    return Schema(schema.fields, name=schema.name, delimiter=schema.delimiter)


def _reordered(schema: Schema) -> Schema:
    return Schema(tuple(reversed(schema.fields)), name=schema.name, delimiter=schema.delimiter)


@pytest.mark.parametrize("foreign_schema", [_equal_copy, _reordered], ids=["equal", "reordered"])
@pytest.mark.parametrize("query_index", range(5))
def test_a_query_bound_to_another_schema_is_rebound(foreign_schema, query_index, monkeypatch):
    """Bound to a schema that is not the payload's own object — equal, or with its fields
    reordered — the query is rebound from its annotation: answers equal brute force, and
    plan, seconds and bytes equal a run bound to the payload's schema."""
    system = _bob_system(800)
    query = bob_queries()[query_index]
    annotation = HailQuery(
        filter=query.predicate,
        projection=tuple(query.projection) if query.projection is not None else None,
    )
    schema = system.schema_of(_PATH)
    foreign = BoundQuery.bind(annotation, foreign_schema(schema))
    assert foreign.schema is not schema
    counts: dict = {}
    _counting(monkeypatch, counts, BoundQuery, "bind")

    own = BoundQuery.bind(annotation, schema)
    planner = PhysicalPlanner(system.hdfs)
    rows = []
    for block_id in system.hdfs.namenode.file_blocks(_PATH):
        fresh_plan = planner.plan_block(block_id, own, prefer_node=0)
        plan = planner.plan_block(block_id, foreign, prefer_node=0)
        assert plan == fresh_plan
        executor = VectorizedExecutor(system.hdfs, system.cost, node_id=0)
        fresh = executor.execute(copy.copy(fresh_plan), own)
        counts["bind"] = 0
        scan = executor.execute(plan, foreign)
        assert counts["bind"] == 1  # rebound, from the annotation, for this payload
        assert scan.plan == fresh.plan
        assert (scan.seconds, scan.bytes_read) == (fresh.seconds, fresh.bytes_read)
        assert (scan.rows, scan.projected, scan.positions) == (
            fresh.rows, fresh.projected, fresh.positions
        )
        rows.extend(scan.projected.rows())
    assert sorted(rows) == _brute_force(800, query.predicate, query.projection)
