"""The ``LogicalQuery`` IR and the normalizer compiling DSL trees to engine predicates.

The engine's :class:`~repro.query.predicate.Predicate` is a *conjunction* of range/equality
clauses whose **clause order is a planning input**: the physical planner and the scheduler try
filter attributes in clause order when picking the replica whose clustered index to use.
Before this layer existed, callers had to hand-order clauses to please the planner — the
clause-order footgun.  The normalizer removes it:

1. **push negation down** — ``~`` is eliminated by flipping comparisons (``~(a < b)`` becomes
   ``a >= b``; negated ``between`` splits into a disjunction of the two outer ranges); negated
   equality has no conjunctive form and raises :class:`UnsupportedExpressionError`;
2. **flatten conjunctions** — nested ``&`` chains become one clause list;
3. **merge disjunctions** — an ``|`` must collapse into a single contiguous range over one
   attribute (``(a < 5) | a.between(5, 10)`` becomes ``a <= 10``); anything else raises;
4. **dedupe attributes** — multiple clauses over one attribute intersect into the tightest
   representable form (``(a >= 1) & (a <= 10)`` becomes ``a between(1, 10)``; an empty
   intersection compiles to an unsatisfiable clause pair, never to a wrong one);
5. **order deterministically by estimated selectivity** — equality first, then closed ranges,
   then half-open ranges, ties broken by attribute and operand text
   (:func:`estimated_selectivity_rank`), so *any* spelling of the same condition produces the
   same clause order and therefore the same physical plan.

The resulting clause tuple feeds :class:`LogicalQuery.compile`, which emits the stable
:class:`~repro.query.predicate.Query` dataclass every system executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, lt
from typing import Any, Optional, Sequence, Union

from repro.api.expressions import (
    AndExpr,
    ColumnExpr,
    ComparisonExpr,
    Expr,
    NotExpr,
    OrExpr,
    UnsupportedExpressionError,
)
from repro.engine.operators import AggregateSpec, GroupByQuery, JoinQuery, TopKQuery
from repro.query.predicate import AttributeRef, Comparison, Operator, Predicate, Query

#: Operator rank used as the leading selectivity estimate: an equality is assumed the most
#: selective clause, a closed range next, and half-open ranges last.  This is a *static*
#: heuristic — no data statistics are consulted — but it is deterministic and matches the
#: planner's preference for trying the sharpest filter attribute first.
_OPERATOR_RANK = {
    Operator.EQ: 0,
    Operator.BETWEEN: 1,
    Operator.LE: 2,
    Operator.LT: 2,
    Operator.GE: 2,
    Operator.GT: 2,
}


def estimated_selectivity_rank(clause: Comparison) -> tuple:
    """Deterministic sort key approximating "most selective clause first".

    The key is ``(operator rank, attribute, operator symbol, operand text)``: equality before
    closed ranges before half-open ranges, with attribute name (or ``@position``) and operand
    rendering as tie-breakers so the order is total — two spellings of the same conjunction
    always compile to the same clause order, and therefore to the same physical plan.
    """
    attribute = clause.attribute
    attribute_key = f"@{attribute:09d}" if isinstance(attribute, int) else attribute
    return (
        _OPERATOR_RANK[clause.op],
        attribute_key,
        clause.op.value,
        tuple(repr(operand) for operand in clause.operands),
    )


def normalize(expression: Union[Expr, ComparisonExpr]) -> tuple[Comparison, ...]:
    """Compile a DSL tree into the engine's deterministic conjunctive normal form.

    Returns the clause tuple of the equivalent conjunction (possibly empty when the
    expression is a tautology such as ``(a < 5) | (a >= 5)``); raises
    :class:`UnsupportedExpressionError` when no conjunction of range/equality clauses is
    equivalent.
    """
    if isinstance(expression, ColumnExpr):
        raise UnsupportedExpressionError(
            f"{expression!r} is a bare column, not a condition; compare it first"
        )
    if not isinstance(expression, Expr):
        raise TypeError(f"expected a DSL expression, got {expression!r}")
    clauses: list[Comparison] = []
    for conjunct in _conjuncts(_push_not(expression)):
        clauses.extend(_merge_disjunction(conjunct))
    merged: list[Comparison] = []
    for _, group in _group_by_attribute(clauses):
        merged.extend(_intersect_group(group))
    return tuple(sorted(merged, key=estimated_selectivity_rank))


# --------------------------------------------------------------------------- the IR
@dataclass(frozen=True)
class LogicalQuery:
    """One declarative query: an expression tree plus projection and figure metadata.

    This is the IR between the DSL and the engine: :class:`~repro.api.session.Dataset`
    produces one per ``collect``/``submit``, the workload definitions declare them directly,
    and :meth:`compile` lowers them to the frozen :class:`~repro.query.predicate.Query` that
    ``system.run_query`` executes.

    Attributes
    ----------
    name:
        Short identifier used in figures (``"Bob-Q1"``).
    where:
        The selection as a DSL expression (``None`` means a pure scan/projection job).
    select:
        Projected attribute references in output order (``None`` projects every attribute).
    description:
        Explicit SQL rendering for figure labels.  When empty, the compiled query renders one
        from the predicate and projection, so labels cannot drift from what actually runs.
    selectivity:
        The paper's stated selectivity (reporting only).
    """

    name: str
    where: Optional[Expr] = None
    select: Optional[tuple[AttributeRef, ...]] = None
    description: str = ""
    selectivity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.where is not None and isinstance(self.where, ColumnExpr):
            raise UnsupportedExpressionError(
                "where= got a bare column; compare it first (e.g. col('a') == value)"
            )
        if self.select is not None and not isinstance(self.select, tuple):
            object.__setattr__(self, "select", tuple(self.select))

    # ------------------------------------------------------------------ lowering
    def predicate(self) -> Optional[Predicate]:
        """The normalized conjunctive predicate (``None`` for scans and tautologies)."""
        if self.where is None:
            return None
        clauses = normalize(self.where)
        if not clauses:
            return None
        return Predicate(clauses)

    def compile(self) -> Query:
        """Lower to the stable compiled form all three systems execute."""
        return Query(
            name=self.name,
            predicate=self.predicate(),
            projection=self.select,
            description=self.description,
            selectivity=self.selectivity,
        )

    def evaluate(self, record: Sequence[Any], schema) -> bool:
        """Reference row semantics of the ``where`` tree (``True`` for scan queries)."""
        if self.where is None:
            return True
        return self.where.evaluate(record, schema)


# --------------------------------------------------------------------------- operator IR
@dataclass(frozen=True)
class LogicalAggregate:
    """Grouped-aggregation IR node: ``GROUP BY keys`` + aggregates over a scan source.

    Compilation rules (each violation raises :class:`UnsupportedExpressionError`, never a
    wrong plan): at least one key *and* one aggregate must be present — ``group_by`` without
    ``agg`` has no output columns and ``agg`` without ``group_by`` would be a global
    aggregate the engine does not implement — and the source must not carry a ``select``
    (the output columns are exactly ``keys + aggregates``; a projection underneath is
    ambiguous).
    """

    name: str
    source: LogicalQuery
    keys: tuple[str, ...] = ()
    aggregates: tuple[Any, ...] = ()
    combiner: bool = True

    def compile(self):
        """Lower to the engine's :class:`~repro.engine.operators.GroupByQuery`."""
        if not self.keys:
            raise UnsupportedExpressionError(
                "agg(...) without group_by(...): global aggregates are not expressible; "
                "group by at least one attribute"
            )
        if not self.aggregates:
            raise UnsupportedExpressionError(
                "group_by(...) without agg(...): a grouping needs at least one aggregate "
                "column (e.g. .agg('count(*)'))"
            )
        if self.source.select is not None:
            raise UnsupportedExpressionError(
                "select(...) cannot be combined with group_by(...): the output columns of a "
                "grouped aggregation are exactly its keys and aggregates"
            )
        specs = tuple(
            spec if isinstance(spec, AggregateSpec) else AggregateSpec.parse(spec)
            for spec in self.aggregates
        )
        return GroupByQuery(
            name=self.name,
            keys=self.keys,
            aggregates=specs,
            predicate=self.source.predicate(),
            combiner=self.combiner,
        )


@dataclass(frozen=True)
class LogicalJoin:
    """Equi-join IR node: two scan sources joined on one attribute.

    Joins compose with per-side ``where``/``select``.  Both inputs are scan leaves, and no
    operator takes a join as its input yet: the ``Dataset`` builders raise
    :class:`UnsupportedExpressionError` for either stack before a node is built.
    """

    name: str
    key: str
    left: LogicalQuery
    right: LogicalQuery
    left_path: str
    right_path: str
    strategy: Optional[str] = None

    def compile(self):
        """Lower to the engine's :class:`~repro.engine.operators.JoinQuery`."""
        return JoinQuery(
            name=self.name,
            key=self.key,
            left_path=self.left_path,
            right_path=self.right_path,
            left=self.left.compile(),
            right=self.right.compile(),
            strategy=self.strategy,
        )


@dataclass(frozen=True)
class LogicalTopK:
    """Ranked top-k IR node: ``ORDER BY order_by [DESC] LIMIT k`` over a scan source.

    ``order_by`` without ``limit`` (an unbounded sort) and ``limit`` without ``order_by``
    (an arbitrary row sample) are both rejected with :class:`UnsupportedExpressionError` —
    only the ranked, bounded combination has deterministic semantics the engine implements.
    """

    name: str
    source: LogicalQuery
    order_by: Optional[str] = None
    k: Optional[int] = None
    descending: bool = False

    def compile(self):
        """Lower to the engine's :class:`~repro.engine.operators.TopKQuery`."""
        if self.order_by is None:
            raise UnsupportedExpressionError(
                "limit(...) without order_by(...): an unranked LIMIT has no deterministic "
                "result; order by an attribute first"
            )
        if self.k is None:
            raise UnsupportedExpressionError(
                "order_by(...) without limit(...): unbounded sorts are not expressible; "
                "add .limit(k)"
            )
        return TopKQuery(
            name=self.name,
            order_by=self.order_by,
            k=self.k,
            descending=self.descending,
            predicate=self.source.predicate(),
            projection=self.source.select,
        )


# --------------------------------------------------------------------------- negation pushdown
def _push_not(expression: Expr, negate: bool = False) -> Expr:
    """Eliminate :class:`NotExpr` nodes by flipping comparisons (De Morgan below booleans)."""
    if isinstance(expression, NotExpr):
        return _push_not(expression.part, not negate)
    if isinstance(expression, AndExpr):
        parts = [_push_not(part, negate) for part in expression.parts]
        return OrExpr(parts) if negate else AndExpr(parts)
    if isinstance(expression, OrExpr):
        parts = [_push_not(part, negate) for part in expression.parts]
        return AndExpr(parts) if negate else OrExpr(parts)
    if isinstance(expression, ComparisonExpr):
        return _negate_comparison(expression) if negate else expression
    raise TypeError(f"unknown expression node {expression!r}")


_FLIPPED = {
    Operator.LT: Operator.GE,
    Operator.LE: Operator.GT,
    Operator.GT: Operator.LE,
    Operator.GE: Operator.LT,
}


def _negate_comparison(leaf: ComparisonExpr) -> Expr:
    clause = leaf.clause
    if clause.op in _FLIPPED:
        return ComparisonExpr(Comparison(clause.attribute, _FLIPPED[clause.op], clause.operands))
    if clause.op is Operator.BETWEEN:
        low, high = clause.operands
        return OrExpr(
            [
                ComparisonExpr(Comparison(clause.attribute, Operator.LT, (low,))),
                ComparisonExpr(Comparison(clause.attribute, Operator.GT, (high,))),
            ]
        )
    raise UnsupportedExpressionError(
        f"cannot negate {leaf.describe()}: HAIL predicates cannot express inequality"
    )


# --------------------------------------------------------------------------- conjunction shape
def _conjuncts(expression: Expr) -> list[Expr]:
    """The top-level conjuncts of a negation-free tree (a single node is one conjunct)."""
    if isinstance(expression, AndExpr):
        conjuncts: list[Expr] = []
        for part in expression.parts:
            conjuncts.extend(_conjuncts(part))
        return conjuncts
    return [expression]


def _merge_disjunction(conjunct: Expr) -> list[Comparison]:
    """Reduce one conjunct to clauses: a leaf passes through, an ``|`` must merge to one range."""
    if isinstance(conjunct, ComparisonExpr):
        return [conjunct.clause]
    if not isinstance(conjunct, OrExpr):
        raise TypeError(f"unexpected node after normalization: {conjunct!r}")

    leaves: list[Comparison] = []
    for part in conjunct.parts:
        if not isinstance(part, ComparisonExpr):
            raise UnsupportedExpressionError(
                f"cannot compile {conjunct.describe()}: a disjunction may only combine "
                "comparisons over one attribute (no nested and/or below |)"
            )
        leaves.append(part.clause)
    attributes = {_attribute_key(clause.attribute) for clause in leaves}
    if len(attributes) > 1:
        raise UnsupportedExpressionError(
            f"cannot compile {conjunct.describe()}: disjunctions across different attributes "
            "have no conjunctive HAIL predicate form"
        )
    union = _union_intervals([_interval_of(clause) for clause in leaves])
    if union is None:
        raise UnsupportedExpressionError(
            f"cannot compile {conjunct.describe()}: the value ranges do not merge into one "
            "contiguous range (HAIL predicates are conjunctions of single ranges)"
        )
    return _interval_to_clauses(leaves[0].attribute, union)


# --------------------------------------------------------------------------- interval algebra
@dataclass(frozen=True)
class _Interval:
    """A value interval: ``None`` bounds are open ends, ``*_strict`` excludes the endpoint."""

    low: Optional[Any] = None
    low_strict: bool = False
    high: Optional[Any] = None
    high_strict: bool = False

    @property
    def is_empty(self) -> bool:
        """No value can satisfy the interval."""
        if self.low is None or self.high is None:
            return False
        if self.low > self.high:
            return True
        return self.low == self.high and (self.low_strict or self.high_strict)


def _interval_of(clause: Comparison) -> _Interval:
    low, high = clause.value_range()
    return _Interval(low, clause.op is Operator.GT, high, clause.op is Operator.LT)


def _union_intervals(intervals: list[_Interval]) -> Optional[_Interval]:
    """The union as one interval, or ``None`` when it is not contiguous.

    Two intervals merge when they overlap or share an endpoint that at least one side
    includes; discrete adjacency (``a <= 4 | a >= 5`` over integers) is deliberately *not*
    merged — the compiler has no type knowledge, and refusing keeps it conservative.
    """
    remaining = [interval for interval in intervals if not interval.is_empty]
    if not remaining:
        return intervals[0]  # all empty: any empty representative keeps semantics
    merged = remaining[0]
    remaining = remaining[1:]
    # Repeatedly absorb any interval that touches the running union; order-insensitive.
    while remaining:
        for index, candidate in enumerate(remaining):
            absorbed = _try_merge(merged, candidate)
            if absorbed is not None:
                merged = absorbed
                del remaining[index]
                break
        else:
            return None
    return merged


def _try_merge(a: _Interval, b: _Interval) -> Optional[_Interval]:
    if _bound_below(b.low, b.low_strict, a.high, a.high_strict) and _bound_below(
        a.low, a.low_strict, b.high, b.high_strict
    ):
        low, low_strict = _pick((a.low, a.low_strict), (b.low, b.low_strict), lt, union=True)
        high, high_strict = _pick((a.high, a.high_strict), (b.high, b.high_strict), gt, union=True)
        return _Interval(low, low_strict, high, high_strict)
    return None


def _bound_below(
    low: Optional[Any], low_strict: bool, high: Optional[Any], high_strict: bool
) -> bool:
    """Does the region above ``low`` reach the region below ``high`` (overlap or touch)?"""
    if low is None or high is None:
        return True
    return low < high or (low == high and not (low_strict and high_strict))


def _intersect(a: _Interval, b: _Interval) -> _Interval:
    low, low_strict = _pick((a.low, a.low_strict), (b.low, b.low_strict), gt, union=False)
    high, high_strict = _pick((a.high, a.high_strict), (b.high, b.high_strict), lt, union=False)
    return _Interval(low, low_strict, high, high_strict)


def _pick(a: tuple, b: tuple, wins, union: bool) -> tuple[Optional[Any], bool]:
    """The ``(bound, strict)`` of one side of a union or intersection of two intervals.

    ``wins(x, y)`` says bound ``x`` is the one to keep over ``y`` (``lt`` for a union's low
    side and an intersection's high side, ``gt`` for the other two).  An open (``None``) bound
    opens a union's side and leaves an intersection's side to the other interval.  On equal
    bounds a union's side is strict only if both are, an intersection's if either is.
    """
    (a_bound, a_strict), (b_bound, b_strict) = a, b
    if a_bound is None or b_bound is None:
        if union:
            return None, False
        return b if a_bound is None else a
    if wins(a_bound, b_bound):
        return a
    if wins(b_bound, a_bound):
        return b
    return a_bound, (a_strict and b_strict) if union else (a_strict or b_strict)


def _interval_to_clauses(attribute: AttributeRef, interval: _Interval) -> list[Comparison]:
    """The tightest clause form of an interval (one clause when representable, else a pair).

    ``BETWEEN`` is inclusive on both ends, so a doubly-bounded interval with a strict side
    keeps two comparison clauses; an *empty* interval deliberately compiles to an
    unsatisfiable clause (pair) — matching no rows is correct, silently widening is not.
    """
    if interval.low is None and interval.high is None:
        return []  # tautology: contributes no clause
    if interval.low is None:
        op = Operator.LT if interval.high_strict else Operator.LE
        return [Comparison(attribute, op, (interval.high,))]
    if interval.high is None:
        op = Operator.GT if interval.low_strict else Operator.GE
        return [Comparison(attribute, op, (interval.low,))]
    if not interval.low_strict and not interval.high_strict:
        if interval.low == interval.high:
            return [Comparison(attribute, Operator.EQ, (interval.low,))]
        return [Comparison(attribute, Operator.BETWEEN, (interval.low, interval.high))]
    low_op = Operator.GT if interval.low_strict else Operator.GE
    high_op = Operator.LT if interval.high_strict else Operator.LE
    return [
        Comparison(attribute, low_op, (interval.low,)),
        Comparison(attribute, high_op, (interval.high,)),
    ]


# --------------------------------------------------------------------------- attribute merge
def _attribute_key(attribute: AttributeRef) -> tuple[int, str]:
    """Group key for clauses over one attribute (names and ``@positions`` stay distinct:
    compilation is schema-free, so ``col(3)`` and ``col("visitDate")`` cannot be unified)."""
    if isinstance(attribute, int):
        return (1, f"@{attribute}")
    return (0, attribute)


def _group_by_attribute(
    clauses: list[Comparison],
) -> list[tuple[tuple[int, str], list[Comparison]]]:
    groups: dict[tuple[int, str], list[Comparison]] = {}
    for clause in clauses:
        groups.setdefault(_attribute_key(clause.attribute), []).append(clause)
    return sorted(groups.items(), key=lambda item: item[0])


def _intersect_group(group: list[Comparison]) -> list[Comparison]:
    """Intersect all clauses over one attribute into the tightest representable form."""
    if len(group) == 1:
        return list(group)
    merged = _interval_of(group[0])
    for clause in group[1:]:
        merged = _intersect(merged, _interval_of(clause))
    return _interval_to_clauses(group[0].attribute, merged)
