"""Selection predicates.

Bob annotates his map function with a filter such as
``@3 between(1999-01-01, 2000-01-01)`` (Section 4.1).  A :class:`Predicate` is a conjunction of
:class:`Comparison` clauses over attributes addressed either by name or by 1-based position
(``@1`` is the first attribute of the schema).  The predicate both drives index selection (which
replica to read) and is applied during post-filtering.

What each operator means is written down once: :data:`COMPARE` maps the one-operand operators
to ``operator.eq/lt/le/gt/ge`` and ``BETWEEN`` is the one two-operand case.
:meth:`Comparison.matches` and the numpy kernel read that table; the normalizer's intervals and
every zone-map check derive from :meth:`Comparison.value_range`.
"""

from __future__ import annotations

import enum
import numbers
import operator
import re
from dataclasses import dataclass
from datetime import date, datetime
from typing import Any, Optional, Sequence, Union

from repro.layouts.schema import Field, FieldType, Schema

AttributeRef = Union[str, int]


class UnsupportedExpressionError(ValueError):
    """The query is valid DSL but has no predicate the engine can evaluate.

    Raised by the normalizer for residual disjunctions (ranges over one attribute whose union
    is not contiguous, or ``|`` across different attributes) and for negated equalities —
    HAIL's predicate language has conjunction, ranges and equality only — and, before any
    job runs, for a clause whose operand cannot be compared with its column's values
    (:meth:`Predicate.check_operands`).
    """


def _operand_fits(ftype: FieldType, operand: Any) -> bool:
    """Does ``operand`` compare with the values a column of ``ftype`` parses to?"""
    if ftype is FieldType.STRING:
        return isinstance(operand, str)
    if ftype is FieldType.DATE:
        # A datetime is a date, yet refuses to be compared with one.
        return isinstance(operand, date) and not isinstance(operand, datetime)
    return isinstance(operand, numbers.Real)


class Operator(enum.Enum):
    """Comparison operators supported by HAIL predicates."""

    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"


#: ``value op operand`` for every one-operand operator; ``BETWEEN`` is the two-operand case.
COMPARE = {
    Operator.EQ: operator.eq,
    Operator.LT: operator.lt,
    Operator.LE: operator.le,
    Operator.GT: operator.gt,
    Operator.GE: operator.ge,
}

#: One-operand operators that leave the value range open below (resp. above).
_OPEN_BELOW = (Operator.LT, Operator.LE)
_OPEN_ABOVE = (Operator.GT, Operator.GE)


@dataclass(frozen=True)
class Comparison:
    """One clause: ``attribute op operand(s)``.

    ``BETWEEN`` is inclusive on both ends, matching SQL and the paper's example query.
    """

    attribute: AttributeRef
    op: Operator
    operands: tuple

    def __post_init__(self) -> None:
        expected = 2 if self.op is Operator.BETWEEN else 1
        if len(self.operands) != expected:
            raise ValueError(
                f"operator {self.op.value!r} needs {expected} operand(s), got {len(self.operands)}"
            )

    # ------------------------------------------------------------------ schema binding
    def attribute_name(self, schema: Schema) -> str:
        """Resolve the attribute reference to a field name."""
        if isinstance(self.attribute, int):
            return schema.field_at_position(self.attribute).name
        return self.attribute

    def attribute_index(self, schema: Schema) -> int:
        """Resolve the attribute reference to a 0-based column index."""
        if isinstance(self.attribute, int):
            if not 1 <= self.attribute <= len(schema):
                raise IndexError(f"attribute position @{self.attribute} out of range")
            return self.attribute - 1
        return schema.index_of(self.attribute)

    # ------------------------------------------------------------------ evaluation
    def matches(self, value: Any) -> bool:
        """True when ``value`` satisfies this clause."""
        if self.op is Operator.BETWEEN:
            low, high = self.operands
            return low <= value <= high
        return COMPARE[self.op](value, self.operands[0])

    def value_range(self) -> tuple[Optional[Any], Optional[Any]]:
        """``(low, high)`` bounds usable for a clustered-index range lookup (None = open).

        The range is closed: a strict operator (``<``, ``>``) keeps its operand as the bound.
        """
        low, high = self.operands[0], self.operands[-1]
        return None if self.op in _OPEN_BELOW else low, None if self.op in _OPEN_ABOVE else high

    def describe(self, schema: Optional[Schema] = None) -> str:
        """Human-readable form, e.g. ``visitDate between(1999-01-01, 2000-01-01)``."""
        name = self.attribute_name(schema) if schema is not None else f"@{self.attribute}"
        if self.op is Operator.BETWEEN:
            return f"{name} between({self.operands[0]}, {self.operands[1]})"
        return f"{name} {self.op.value} {self.operands[0]}"


class Predicate:
    """A conjunction of comparison clauses (all must hold)."""

    def __init__(self, clauses: Sequence[Comparison]) -> None:
        if not clauses:
            raise ValueError("a predicate needs at least one clause")
        self.clauses: tuple[Comparison, ...] = tuple(clauses)

    # ------------------------------------------------------------------ constructors
    @classmethod
    def comparison(cls, attribute: AttributeRef, op: Operator, *operands: Any) -> "Predicate":
        """Single-clause predicate."""
        return cls([Comparison(attribute, op, tuple(operands))])

    @classmethod
    def equals(cls, attribute: AttributeRef, value: Any) -> "Predicate":
        """``attribute = value``."""
        return cls.comparison(attribute, Operator.EQ, value)

    @classmethod
    def between(cls, attribute: AttributeRef, low: Any, high: Any) -> "Predicate":
        """``attribute BETWEEN low AND high`` (inclusive)."""
        return cls.comparison(attribute, Operator.BETWEEN, low, high)

    # ------------------------------------------------------------------ introspection
    def attributes(self, schema: Schema) -> list[str]:
        """Filter attribute names, in clause order (duplicates removed)."""
        seen: list[str] = []
        for clause in self.clauses:
            name = clause.attribute_name(schema)
            if name not in seen:
                seen.append(name)
        return seen

    def clause_for(self, attribute: str, schema: Schema) -> Optional[Comparison]:
        """The first clause over ``attribute``, or ``None``."""
        for clause in self.clauses:
            if clause.attribute_name(schema) == attribute:
                return clause
        return None

    def check_operands(self, schema: Schema) -> None:
        """Refuse a clause whose operand cannot be compared with its column's values.

        Numbers compare with numeric columns, ``str`` with STRING and ``datetime.date`` with
        DATE columns; anything else would raise a bare ``TypeError`` inside a map task, so it
        raises :class:`UnsupportedExpressionError` naming the column, its type and the
        operand's type before any job runs.
        """
        for clause in self.clauses:
            field = schema.fields[clause.attribute_index(schema)]
            for operand in clause.operands:
                if not _operand_fits(field.ftype, operand):
                    raise UnsupportedExpressionError(
                        f"cannot compare column {field.name!r} ({field.ftype.value}) with "
                        f"{operand!r} ({type(operand).__name__})"
                    )

    # ------------------------------------------------------------------ evaluation
    def matches(self, record: Sequence[Any], schema: Schema) -> bool:
        """True when the full record satisfies every clause."""
        return all(
            clause.matches(record[clause.attribute_index(schema)]) for clause in self.clauses
        )

    def describe(self, schema: Optional[Schema] = None) -> str:
        """Human-readable conjunction."""
        return " and ".join(clause.describe(schema) for clause in self.clauses)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same clauses in the same order.

        Clause *order* matters deliberately — it is a planning input (see
        ``Query.filter_attributes``) — so two predicates that match the same rows but would
        plan differently compare unequal.
        """
        if not isinstance(other, Predicate):
            return NotImplemented
        return self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash(self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Predicate({self.describe()})"


# ----------------------------------------------------------------------- string parsing
_CLAUSE_RE = re.compile(
    r"^\s*(?P<attr>@\d+|[A-Za-z_]\w*)\s*"
    r"(?P<op>between|>=|<=|=|<|>)\s*"
    r"(?P<rest>.*)$",
    re.IGNORECASE,
)


def parse_predicate(text: str, schema: Schema) -> Predicate:
    """Parse the annotation filter syntax into a typed :class:`Predicate`.

    Supported forms (conjunctions joined with ``and``)::

        @3 between(1999-01-01, 2000-01-01)
        sourceIP = 172.101.11.46
        adRevenue >= 1 and adRevenue <= 10
    """
    clauses: list[Comparison] = []
    for raw in re.split(r"\s+and\s+", text.strip(), flags=re.IGNORECASE):
        match = _CLAUSE_RE.match(raw)
        if match is None:
            raise ValueError(f"cannot parse predicate clause: {raw!r}")
        attribute: AttributeRef = match.group("attr")
        if isinstance(attribute, str) and attribute.startswith("@"):
            attribute = int(attribute[1:])
        op = Operator(match.group("op").lower())
        rest = match.group("rest").strip()
        field = _resolve_field(attribute, schema)
        if op is Operator.BETWEEN:
            inner = rest.strip()
            if inner.startswith("(") and inner.endswith(")"):
                inner = inner[1:-1]
            parts = [part.strip() for part in inner.split(",")]
            if len(parts) != 2:
                raise ValueError(f"between needs two operands: {raw!r}")
            operands = tuple(field.parse(part) for part in parts)
        else:
            operands = (field.parse(rest.strip("'\"")),)
        clauses.append(Comparison(attribute, op, operands))
    return Predicate(clauses)


def _resolve_field(attribute: AttributeRef, schema: Schema) -> Field:
    if isinstance(attribute, int):
        return schema.field_at_position(attribute)
    return schema.field(attribute)
