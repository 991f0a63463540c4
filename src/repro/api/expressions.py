"""The typed expression DSL: columns, comparisons, and boolean composition.

Users build selection predicates as ordinary Python expressions::

    from repro.api import col

    (col("visitDate").between(date(1999, 1, 1), date(2000, 1, 1)))
    (col("sourceIP") == "172.101.11.46") & (col("visitDate") == date(1992, 12, 22))
    ~(col("adRevenue") < 1.0)                      # becomes adRevenue >= 1.0
    (col("f1") < 10) | col("f1").between(10, 20)   # contiguous ranges merge to f1 <= 20

An expression is a plain tree (:class:`ComparisonExpr` leaves under :class:`AndExpr` /
:class:`OrExpr` / :class:`NotExpr` nodes) with two independent consumers:

- :meth:`Expr.evaluate` — direct row evaluation, the *reference semantics*; and
- :func:`repro.api.logical.normalize` — compilation into the engine's conjunctive
  :class:`~repro.query.predicate.Predicate`.

The property-based suite (``tests/test_api_expressions.py``) pins the two against each other:
whatever the normalizer emits must match exactly the rows the tree itself accepts.

HAIL predicates are conjunctions of range/equality clauses, so not every tree compiles:
disjunctions that do not merge into one contiguous range per attribute, and negated
equalities, raise :class:`UnsupportedExpressionError` at compile time with an explanation —
never a silently wrong plan.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence, Union

from repro.query.predicate import AttributeRef, Comparison, Operator, UnsupportedExpressionError
from repro.query.schema import Schema


class Expr(abc.ABC):
    """A boolean expression over one record: the DSL's common base class.

    Compose with ``&`` (and), ``|`` (or) and ``~`` (not).  The Python keywords ``and`` /
    ``or`` / ``not`` cannot be overloaded — using them on expressions raises via
    :meth:`__bool__` instead of silently collapsing the tree.
    """

    def __and__(self, other: "Expr") -> "Expr":
        return AndExpr(_parts(self, AndExpr) + _parts(_check_expr(other, "&"), AndExpr))

    def __or__(self, other: "Expr") -> "Expr":
        return OrExpr(_parts(self, OrExpr) + _parts(_check_expr(other, "|"), OrExpr))

    def __invert__(self) -> "Expr":
        return NotExpr(self)

    def __bool__(self) -> bool:
        raise TypeError(
            "expressions have no truth value; combine them with & / | / ~ "
            "(the Python keywords and/or/not cannot be overloaded)"
        )

    @abc.abstractmethod
    def evaluate(self, record: Sequence[Any], schema: Schema) -> bool:
        """Reference semantics: does ``record`` (a plain tuple) satisfy this expression?"""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable rendering (used in error messages and ``repr``)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


class ComparisonExpr(Expr):
    """A leaf: one ``attribute op operand(s)`` clause, wrapping the engine's ``Comparison``."""

    def __init__(self, clause: Comparison) -> None:
        self.clause = clause

    def evaluate(self, record: Sequence[Any], schema: Schema) -> bool:
        """Apply the clause to the record's value of the addressed attribute."""
        return self.clause.matches(record[self.clause.attribute_index(schema)])

    def describe(self) -> str:
        """The clause in the annotation syntax (positions shown as ``@k``)."""
        return self.clause.describe()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparisonExpr):
            return NotImplemented
        return self.clause == other.clause

    __hash__ = None  # type: ignore[assignment]  # mutable-by-convention DSL nodes


class AndExpr(Expr):
    """Conjunction of two or more sub-expressions."""

    def __init__(self, parts: Sequence[Expr]) -> None:
        if len(parts) < 2:
            raise ValueError("AndExpr needs at least two parts")
        self.parts: tuple[Expr, ...] = tuple(parts)

    def evaluate(self, record: Sequence[Any], schema: Schema) -> bool:
        """True when every part holds."""
        return all(part.evaluate(record, schema) for part in self.parts)

    def describe(self) -> str:
        """Parenthesised ``and`` chain."""
        return "(" + " and ".join(part.describe() for part in self.parts) + ")"


class OrExpr(Expr):
    """Disjunction of two or more sub-expressions."""

    def __init__(self, parts: Sequence[Expr]) -> None:
        if len(parts) < 2:
            raise ValueError("OrExpr needs at least two parts")
        self.parts: tuple[Expr, ...] = tuple(parts)

    def evaluate(self, record: Sequence[Any], schema: Schema) -> bool:
        """True when any part holds."""
        return any(part.evaluate(record, schema) for part in self.parts)

    def describe(self) -> str:
        """Parenthesised ``or`` chain."""
        return "(" + " or ".join(part.describe() for part in self.parts) + ")"


class NotExpr(Expr):
    """Negation of one sub-expression."""

    def __init__(self, part: Expr) -> None:
        self.part = part

    def evaluate(self, record: Sequence[Any], schema: Schema) -> bool:
        """True when the wrapped expression does not hold."""
        return not self.part.evaluate(record, schema)

    def describe(self) -> str:
        """``not (...)`` rendering."""
        return f"not {self.part.describe()}"


class ColumnExpr:
    """A column reference: the starting point of every DSL expression.

    Comparison operators (``==``, ``<``, ``<=``, ``>``, ``>=``) and :meth:`between` yield
    :class:`ComparisonExpr` leaves.  ``!=`` is deliberately absent: HAIL predicates cannot
    express inequality, and the DSL refuses to pretend otherwise.

    A column is *not* itself a boolean expression — it addresses an attribute by schema name
    or 1-based position (``col("visitDate")``, ``col(3)``), exactly like the ``@HailQuery``
    annotation syntax.
    """

    def __init__(self, attribute: AttributeRef) -> None:
        if isinstance(attribute, int) and attribute < 1:
            raise ValueError("column positions are 1-based (col(1) is the first attribute)")
        self.attribute = attribute

    # ------------------------------------------------------------------ comparisons
    def __eq__(self, value: object) -> ComparisonExpr:  # type: ignore[override]
        return self._compare(Operator.EQ, value)

    def __lt__(self, value: Any) -> ComparisonExpr:
        return self._compare(Operator.LT, value)

    def __le__(self, value: Any) -> ComparisonExpr:
        return self._compare(Operator.LE, value)

    def __gt__(self, value: Any) -> ComparisonExpr:
        return self._compare(Operator.GT, value)

    def __ge__(self, value: Any) -> ComparisonExpr:
        return self._compare(Operator.GE, value)

    def __ne__(self, value: object) -> ComparisonExpr:  # type: ignore[override]
        raise UnsupportedExpressionError(
            f"col({self.attribute!r}) != ...: HAIL predicates cannot express inequality; "
            "use ranges (<, >, between) or equality instead"
        )

    def between(self, low: Any, high: Any) -> ComparisonExpr:
        """Inclusive range clause, matching SQL ``BETWEEN`` and the paper's example query."""
        return ComparisonExpr(Comparison(self.attribute, Operator.BETWEEN, (low, high)))

    def _compare(self, op: Operator, value: Any) -> ComparisonExpr:
        if isinstance(value, (ColumnExpr, Expr)):
            raise UnsupportedExpressionError(
                "comparisons take a literal operand, not another column or expression"
            )
        return ComparisonExpr(Comparison(self.attribute, op, (value,)))

    __hash__ = None  # type: ignore[assignment]  # == builds expressions, not truth values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"col({self.attribute!r})"


def col(attribute: AttributeRef) -> ColumnExpr:
    """Reference a column by schema name or 1-based position (``col("visitDate")``, ``col(3)``)."""
    return ColumnExpr(attribute)


def _check_expr(value: Union[Expr, Any], operator: str) -> Expr:
    """Reject common mistakes (bare columns, raw predicates) with a pointed message."""
    if isinstance(value, ColumnExpr):
        raise TypeError(
            f"cannot combine a bare column with {operator!r}; compare it first "
            f"(e.g. col(...) == value)"
        )
    if not isinstance(value, Expr):
        raise TypeError(f"expected a DSL expression on both sides of {operator!r}, got {value!r}")
    return value


def _parts(expr: Expr, node_type: type) -> tuple[Expr, ...]:
    """Flatten same-type boolean nodes while composing, so chains stay shallow."""
    if isinstance(expr, node_type):
        return expr.parts  # type: ignore[attr-defined]
    return (expr,)
