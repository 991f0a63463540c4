"""Property-based suite for the expression DSL and its normalizer.

The compiler's contract: whatever clauses :func:`repro.api.logical.normalize` emits, the
resulting :class:`Predicate` must accept exactly the rows the expression tree itself accepts
(``Expr.evaluate`` is the reference semantics), and the emitted clause order must be
deterministic — two spellings of the same conjunction produce identical plans.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing
from datetime import date

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.api.expressions import UnsupportedExpressionError, col
from repro.api.logical import LogicalQuery, estimated_selectivity_rank, normalize
from repro.cluster import Cluster, CostModel, CostParameters
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.layouts import FieldType, Schema
from repro.workloads import bob_queries
from repro.workloads.query import Query

SCHEMA = Schema.of(
    ("a", FieldType.INT), ("b", FieldType.INT), ("c", FieldType.INT), name="abc"
)

_VALUES = st.integers(min_value=0, max_value=60)
_ATTRIBUTES = st.sampled_from(["a", "b", "c", 1, 2])  # names and 1-based positions


def _leaf(attribute, op, values):
    """One comparison leaf over ``attribute`` (``values`` feeds the operand(s))."""
    column = col(attribute)
    if op == "between":
        low, high = sorted(values[:2])
        return column.between(low, high)
    return {
        "==": column == values[0],
        "<": column < values[0],
        "<=": column <= values[0],
        ">": column > values[0],
        ">=": column >= values[0],
    }[op]


_LEAVES = st.builds(
    _leaf,
    attribute=_ATTRIBUTES,
    op=st.sampled_from(["==", "<", "<=", ">", ">=", "between"]),
    values=st.lists(_VALUES, min_size=2, max_size=2),
)

#: Negation restricted to single-sided ranges: those always stay conjunctive when flipped.
_NEGATED = st.builds(
    lambda leaf: ~leaf,
    st.builds(
        _leaf,
        attribute=_ATTRIBUTES,
        op=st.sampled_from(["<", "<=", ">", ">="]),
        values=st.lists(_VALUES, min_size=2, max_size=2),
    ),
)

#: Disjunctions over one attribute; contiguity is not guaranteed, tests `assume` on compile.
_SAME_ATTRIBUTE_OR = st.builds(
    lambda attribute, specs: _or_chain(attribute, specs),
    attribute=_ATTRIBUTES,
    specs=st.lists(
        st.tuples(
            st.sampled_from(["==", "<", "<=", ">", ">=", "between"]),
            st.lists(_VALUES, min_size=2, max_size=2),
        ),
        min_size=2,
        max_size=3,
    ),
)


def _or_chain(attribute, specs):
    parts = [_leaf(attribute, op, values) for op, values in specs]
    combined = parts[0]
    for part in parts[1:]:
        combined = combined | part
    return combined


_CONJUNCTS = st.one_of(_LEAVES, _NEGATED, _SAME_ATTRIBUTE_OR)


def _and_chain(parts):
    combined = parts[0]
    for part in parts[1:]:
        combined = combined & part
    return combined


_TREES = st.builds(_and_chain, st.lists(_CONJUNCTS, min_size=1, max_size=4))

_ROWS = st.lists(
    st.tuples(_VALUES, _VALUES, _VALUES), min_size=0, max_size=40
)


# --------------------------------------------------------------------------- the core property
@given(tree=_TREES, rows=_ROWS)
@settings(max_examples=250, deadline=None)
def test_compiled_predicate_agrees_with_tree_evaluation(tree, rows):
    """normalize(tree) matches exactly the rows the tree itself accepts."""
    try:
        clauses = normalize(tree)
    except UnsupportedExpressionError:
        assume(False)  # e.g. a generated | whose ranges are not contiguous
    predicate = Predicate(clauses) if clauses else None
    for row in rows:
        expected = tree.evaluate(row, SCHEMA)
        compiled = True if predicate is None else predicate.matches(row, SCHEMA)
        assert compiled == expected, (tree.describe(), clauses, row)


@given(tree=_TREES)
@settings(max_examples=250, deadline=None)
def test_normalization_is_deterministic_and_idempotent_in_rank(tree):
    """Repeated compilation yields the same clauses, already in rank order."""
    try:
        clauses = normalize(tree)
    except UnsupportedExpressionError:
        assume(False)
    assert normalize(tree) == clauses
    assert list(clauses) == sorted(clauses, key=estimated_selectivity_rank)


@given(parts=st.lists(_CONJUNCTS, min_size=2, max_size=4), seed=st.randoms())
@settings(max_examples=150, deadline=None)
def test_conjunct_order_never_changes_the_compiled_clauses(parts, seed):
    """Any spelling order of the same conjunction compiles identically (the footgun fix)."""
    try:
        reference = normalize(_and_chain(parts))
    except UnsupportedExpressionError:
        assume(False)
    shuffled = list(parts)
    seed.shuffle(shuffled)
    assert normalize(_and_chain(shuffled)) == reference


# --------------------------------------------------------------------------- merge semantics
def test_and_over_one_attribute_tightens_to_between():
    clauses = normalize((col("a") >= 1) & (col("a") <= 10))
    assert clauses == (Predicate.between("a", 1, 10).clauses[0],)


def test_or_of_touching_ranges_merges():
    (clause,) = normalize((col("a") < 10) | col("a").between(10, 20))
    assert clause.op is Operator.LE and clause.operands == (20,)


def test_or_of_disjoint_ranges_is_unsupported():
    with pytest.raises(UnsupportedExpressionError):
        normalize((col("a") < 1) | (col("a") > 9))


def test_or_across_attributes_is_unsupported():
    with pytest.raises(UnsupportedExpressionError):
        normalize((col("a") == 1) | (col("b") == 2))


def test_negated_equality_is_unsupported():
    with pytest.raises(UnsupportedExpressionError):
        normalize(~(col("a") == 1))
    with pytest.raises(UnsupportedExpressionError):
        col("a") != 1


def test_tautology_compiles_to_no_clauses():
    assert normalize((col("a") < 5) | (col("a") >= 5)) == ()
    assert LogicalQuery(name="q", where=(col("a") < 5) | (col("a") >= 5)).predicate() is None


def test_contradiction_still_matches_nothing():
    clauses = normalize((col("a") < 3) & (col("a") > 7))
    predicate = Predicate(clauses)
    assert not any(predicate.matches((value, 0, 0), SCHEMA) for value in range(0, 60))


def test_keywords_and_bare_columns_are_rejected():
    with pytest.raises(TypeError):
        bool(col("a") == 1)  # `and`/`or`/`not` would call this
    with pytest.raises(TypeError):
        (col("a") == 1) & col("b")
    with pytest.raises(UnsupportedExpressionError):
        LogicalQuery(name="q", where=col("a"))


# --------------------------------------------------------------------------- plan identity
def _tiny_hail():
    system = HailSystem(
        Cluster.homogeneous(4, seed=7),
        config=HailConfig(
            index_attributes=("a", "b"), functional_partition_size=1, splitting_policy=False
        ),
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    rows = [(i % 50, (i * 7) % 50, i) for i in range(300)]
    system.upload("/t/abc", rows, SCHEMA, rows_per_block=100)
    return system


def test_two_spellings_identical_plan():
    """The satellite regression: two DSL spellings of one conjunction → one physical plan."""
    system = _tiny_hail()
    spelling_one = LogicalQuery(
        name="q", where=(col("b") <= 30) & (col("a") == 7), select=("c",)
    ).compile()
    spelling_two = LogicalQuery(
        name="q", where=(col("a") == 7) & (col("b") <= 30), select=("c",)
    ).compile()
    assert spelling_one.predicate == spelling_two.predicate
    assert spelling_one.filter_attributes() == spelling_two.filter_attributes() == ("a", "b")
    assert system.explain(spelling_one, "/t/abc") == system.explain(spelling_two, "/t/abc")


def test_dsl_compiles_bob_queries_identically_to_hand_built():
    """The rewired workload equals the legacy hand-assembled predicates, clause for clause."""
    legacy = [
        Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1)),
        Predicate.equals("sourceIP", "172.101.11.46"),
        Predicate(
            Predicate.equals("sourceIP", "172.101.11.46").clauses
            + Predicate.equals("visitDate", date(1992, 12, 22)).clauses
        ),
        Predicate.between("adRevenue", 1.0, 10.0),
        Predicate.between("adRevenue", 1.0, 100.0),
    ]
    for query, predicate in zip(bob_queries(), legacy):
        assert query.predicate == predicate


# --------------------------------------------------------------------------- query satellites
def test_query_auto_renders_sql_description():
    query = LogicalQuery(
        name="q", where=(col("a") >= 1) & (col("a") <= 10), select=("b", "c")
    ).compile()
    assert query.description == "SELECT b, c WHERE a BETWEEN 1 AND 10"
    scan = Query(name="scan", predicate=None, projection=None)
    assert scan.description == "SELECT *"
    strings = Query(
        name="eq", predicate=Predicate.equals("name", "x"), projection=("name",)
    )
    assert strings.description == "SELECT name WHERE name = 'x'"


@pytest.mark.parametrize(
    "name, literal", [("O'Brien", "'O''Brien'"), ("'", "''''"), ("a''b", "'a''''b'")]
)
def test_quote_in_a_string_operand_renders_sql_that_sqlite_runs(name, literal):
    """The label is SQL an engine can execute: a ``'`` inside a string operand is doubled."""
    query = LogicalQuery(name="q", where=col("name") == name, select=("name",)).compile()
    assert query.description == f"SELECT name WHERE name = {literal}"
    select, where = query.description.split(" WHERE ")
    with closing(sqlite3.connect(":memory:")) as connection:
        connection.execute("CREATE TABLE t (name TEXT)")
        connection.executemany("INSERT INTO t VALUES (?)", [(name,), ("OBrien",)])
        rows = connection.execute(f"{select} FROM t WHERE {where}").fetchall()
    assert rows == [(name,)]


def test_explicit_description_wins_over_auto_render():
    query = Query(
        name="q", predicate=Predicate.equals("a", 1), projection=None, description="CUSTOM"
    )
    assert query.description == "CUSTOM"
    assert all(q.description.startswith("SELECT") for q in bob_queries())


def test_filter_attributes_unique_path():
    predicate = Predicate([
        Predicate.comparison("a", Operator.GT, 1).clauses[0],
        Predicate.comparison("b", Operator.EQ, 2).clauses[0],
        Predicate.comparison("a", Operator.LT, 9).clauses[0],
    ])
    query = Query(name="q", predicate=predicate, projection=None)
    assert query.filter_attributes() == ("a", "b", "a")
    assert query.filter_attributes(unique=True) == ("a", "b")
    assert Query(name="scan", predicate=None, projection=None).filter_attributes() == ()
