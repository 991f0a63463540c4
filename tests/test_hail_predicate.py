"""Tests for predicates and the annotation filter parser."""

from datetime import date

import pytest

from repro.datagen import USERVISITS_SCHEMA
from repro.hail.predicate import COMPARE, Comparison, Operator, Predicate, parse_predicate
from repro.layouts import FieldType, Schema


@pytest.fixture
def schema() -> Schema:
    return USERVISITS_SCHEMA


def test_comparison_operand_arity_enforced():
    with pytest.raises(ValueError):
        Comparison("a", Operator.EQ, (1, 2))
    with pytest.raises(ValueError):
        Comparison("a", Operator.BETWEEN, (1,))


def test_comparison_matching_all_operators():
    assert Comparison("a", Operator.EQ, (5,)).matches(5)
    assert not Comparison("a", Operator.EQ, (5,)).matches(6)
    assert Comparison("a", Operator.LT, (5,)).matches(4)
    assert Comparison("a", Operator.LE, (5,)).matches(5)
    assert Comparison("a", Operator.GT, (5,)).matches(6)
    assert Comparison("a", Operator.GE, (5,)).matches(5)
    assert Comparison("a", Operator.BETWEEN, (1, 3)).matches(1)
    assert Comparison("a", Operator.BETWEEN, (1, 3)).matches(3)
    assert not Comparison("a", Operator.BETWEEN, (1, 3)).matches(4)


def test_compare_table_defines_every_one_operand_operator():
    """``BETWEEN`` is the one operator without a ``COMPARE`` entry; each entry is its text."""
    assert set(COMPARE) == set(Operator) - {Operator.BETWEEN}
    # value 4, 5, 6 against operand 5
    truth = {
        "=": (False, True, False),
        "<": (True, False, False),
        "<=": (True, True, False),
        ">": (False, False, True),
        ">=": (False, True, True),
    }
    for op, compare in COMPARE.items():
        assert tuple(compare(value, 5) for value in (4, 5, 6)) == truth[op.value]
        assert tuple(Comparison("a", op, (5,)).matches(v) for v in (4, 5, 6)) == truth[op.value]


def test_comparison_value_ranges():
    assert Comparison("a", Operator.EQ, (5,)).value_range() == (5, 5)
    assert Comparison("a", Operator.LT, (5,)).value_range() == (None, 5)
    assert Comparison("a", Operator.GE, (5,)).value_range() == (5, None)
    assert Comparison("a", Operator.BETWEEN, (1, 3)).value_range() == (1, 3)


def test_attribute_resolution_by_name_and_position(schema):
    by_name = Comparison("visitDate", Operator.EQ, (date(1999, 1, 1),))
    by_position = Comparison(3, Operator.EQ, (date(1999, 1, 1),))
    assert by_name.attribute_index(schema) == by_position.attribute_index(schema) == 2
    assert by_position.attribute_name(schema) == "visitDate"
    with pytest.raises(IndexError):
        Comparison(42, Operator.EQ, (1,)).attribute_index(schema)


def test_predicate_requires_clauses():
    with pytest.raises(ValueError):
        Predicate([])


def test_predicate_conjunction_and_matching(schema, uservisits_sample):
    predicate = Predicate(
        Predicate.equals("sourceIP", "172.101.11.46").clauses
        + Predicate.between("adRevenue", 0.0, 1000.0).clauses
    )
    assert len(predicate.clauses) == 2
    assert predicate.attributes(schema) == ["sourceIP", "adRevenue"]
    expected = [
        r for r in uservisits_sample if r[0] == "172.101.11.46" and 0.0 <= r[3] <= 1000.0
    ]
    actual = [r for r in uservisits_sample if predicate.matches(r, schema)]
    assert actual == expected


def test_predicate_clause_for(schema):
    predicate = Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1))
    assert predicate.clause_for("visitDate", schema) is predicate.clauses[0]
    assert predicate.clause_for("adRevenue", schema) is None


def test_predicate_describe_mentions_attributes(schema):
    predicate = Predicate.between(3, date(1999, 1, 1), date(2000, 1, 1))
    text = predicate.describe(schema)
    assert "visitDate" in text and "between" in text
    assert "@3" in predicate.describe()


# --------------------------------------------------------------------------- parser
def test_parse_between_with_positions(schema):
    predicate = parse_predicate("@3 between(1999-01-01, 2000-01-01)", schema)
    clause = predicate.clauses[0]
    assert clause.op == Operator.BETWEEN
    assert clause.operands == (date(1999, 1, 1), date(2000, 1, 1))
    assert clause.attribute_index(schema) == 2


def test_parse_equality_and_comparison_by_name(schema):
    predicate = parse_predicate("sourceIP = 172.101.11.46 and adRevenue >= 10", schema)
    assert len(predicate.clauses) == 2
    assert predicate.clauses[0].operands == ("172.101.11.46",)
    assert predicate.clauses[1].op == Operator.GE
    assert predicate.clauses[1].operands == (10.0,)


def test_parse_rejects_garbage(schema):
    with pytest.raises(ValueError):
        parse_predicate("visitDate resembles 1999", schema)
    with pytest.raises(ValueError):
        parse_predicate("@3 between(1999-01-01)", schema)


def test_parse_typed_operands_for_int_attribute():
    schema = Schema.of(("f1", FieldType.INT), ("f2", FieldType.INT))
    predicate = parse_predicate("f1 < 100000", schema)
    assert predicate.clauses[0].operands == (100000,)
    assert predicate.matches((5, 0), schema)
    assert not predicate.matches((200000, 0), schema)
