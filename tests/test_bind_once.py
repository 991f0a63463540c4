"""HAIL binds each query once per job: per-block execution does only per-block work.

The split phase binds the job's ``@HailQuery`` to the file's schema once
(``PhysicalPlanner._bind`` → :class:`~repro.engine.planner.BoundQuery`, carried on the
:class:`~repro.engine.planner.QueryPlan`); re-planning, the execution marks and the executor
read its fields instead of re-deriving predicate, projection and column lists per block, and
the executed plan a query's result carries is framed from that same binding.  The executor trusts the bound fields only while the payload's schema is the very object they were
bound to, and rebinds from the annotation otherwise (fail closed).
"""

from __future__ import annotations

import copy
import math
from datetime import date

import pytest

import repro.hail.annotation as annotation_module
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine.executor import VectorizedExecutor
from repro.engine.planner import BoundQuery, PhysicalPlanner
from repro.hail import HailConfig, HailInputFormat, HailSystem, hail_query
from repro.hail.annotation import HailQuery
from repro.hail.hail_block import HailBlock
from repro.hail.predicate import Comparison, Operator, Predicate
from repro.layouts.schema import Schema
from repro.mapreduce import JobConf
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

    planner = PhysicalPlanner(system.hdfs)
    rows = []
    for block_id in system.hdfs.namenode.file_blocks(_PATH):
        fresh_plan = planner.plan_block(block_id, annotation, prefer_node=0)
        plan = planner.plan_block(block_id, foreign, prefer_node=0)
        assert plan == fresh_plan
        executor = VectorizedExecutor(system.hdfs, system.cost, node_id=0)
        fresh = executor.execute(copy.copy(fresh_plan), annotation)
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
