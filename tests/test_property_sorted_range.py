"""Property test: an index scan's sorted-window run is exactly what the scan kernels select.

``kernels.sorted_range`` answers a predicate over a window sorted on one column by bisecting
for the run of rows that satisfy the clause on that column, then refining the run with the
other clauses.  For every operator, every window ``[start, end)`` of small blocks and a
BETWEEN whose bounds may cross, over sorted ints with many ties, strings, dates, NaN-free
floats and a BIGINT column compared with float operands near 2**53, its rows equal the
reference scan's (``_SCAN``, then ``_REFINE``) and ``filter_range``'s under both kernel
backends (numpy forced onto narrow windows); given zone-pruning flags it either declines or
keeps exactly the rows ``filter_ranges`` keeps.  The clause on the sorted column is the one
the job's bound query holds for it, and a NaN operand there (no row satisfies it, and a
bisect for it spans the window) marks it as one no run may answer, so the executor hands the
window to the scan kernels instead; a column holding NaN or ``None`` makes the run decline on
every window.
"""

from __future__ import annotations

import datetime
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.planner import BoundQuery
from repro.layouts.pax import PaxBlock
from repro.query.annotation import HailQuery
from repro.query.predicate import Comparison, Operator, Predicate
from repro.query.schema import FieldType, Schema

_BACKENDS = ["python"] + (["numpy"] if kernels.HAVE_NUMPY else [])
_EDGE = 2**53

#: Per column kind: its field type, a value strategy and an operand strategy.
_KINDS = {
    "ties": (FieldType.INT, st.integers(-3, 3), st.integers(-4, 4) | st.just(math.nan)),
    "string": (FieldType.STRING, st.text("abc", max_size=2), st.text("abc", max_size=2)),
    "date": (
        FieldType.DATE,
        st.dates(datetime.date(2000, 1, 1), datetime.date(2000, 1, 8)),
        st.dates(datetime.date(1999, 12, 31), datetime.date(2000, 1, 9)),
    ),
    "float": (
        FieldType.DOUBLE,
        st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, math.inf, -math.inf]),
        st.floats(-3.0, 3.0, allow_nan=False)
        | st.sampled_from([0.0, -0.0, math.inf, math.nan]),
    ),
    "bigint": (
        FieldType.BIGINT,
        st.integers(_EDGE - 3, _EDGE + 3),
        st.sampled_from([float(_EDGE - 2), float(_EDGE), float(_EDGE + 2), _EDGE + 1, math.nan]),
    ),
}


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    ftype, values, operands = _KINDS[kind]
    column = sorted(draw(st.lists(values, max_size=20)))
    other = draw(st.lists(st.integers(0, 3), min_size=len(column), max_size=len(column)))
    schema = Schema.of(("c", ftype), ("v", FieldType.INT), name="sorted")
    pax = PaxBlock(schema, [column, other], len(column))
    op = draw(st.sampled_from(list(Operator)))
    count = 2 if op is Operator.BETWEEN else 1
    clauses = [Comparison(1, op, tuple(draw(operands) for _ in range(count)))]
    if draw(st.booleans()):  # a second clause, on the unsorted column, refines the run
        refine = Comparison(2, Operator.LE, (draw(st.integers(0, 3)),))
        clauses.insert(draw(st.integers(0, 1)), refine)
    # Zone-pruning flags over the block (1 = pruned), sliced per window; rows that match may
    # be flagged too, as a stale synopsis would flag them.
    flags = draw(st.none() | st.binary(min_size=len(column), max_size=len(column)))
    if flags is not None:
        flags = bytes(byte & 1 for byte in flags)
    return pax, schema, Predicate(clauses), flags


def _reference(pax: PaxBlock, predicate: Predicate, schema: Schema, start: int, end: int):
    """The reference backend: ``_SCAN`` over the window, ``_REFINE`` per later clause."""
    first, *rest = predicate.clauses
    window = pax.columns[first.attribute_index(schema)][start:end]
    rows = kernels._SCAN[first.op](window, start, *first.operands)
    for clause in rest:
        column = pax.columns[clause.attribute_index(schema)]
        rows = kernels._REFINE[clause.op](column, rows, *clause.operands)
    return rows


@settings(max_examples=400, deadline=None)
@given(case=_cases())
def test_the_sorted_run_is_the_scan_kernels_selection(case):
    pax, schema, predicate, flags = case
    clause, bisectable = BoundQuery.bind(HailQuery(filter=predicate), schema).first_clauses["c"]
    assert clause is next(c for c in predicate.clauses if c.attribute == 1)
    nan_operand = any(isinstance(x, float) and math.isnan(x) for x in clause.operands)
    assert bisectable is not nan_operand
    windows = [(s, e) for s in range(pax.num_rows + 1) for e in range(s, pax.num_rows + 1)]
    for start, end in windows:
        if start == end:
            assert kernels.sorted_range(pax, predicate, schema, clause, start, end) is None
            continue
        want = _reference(pax, predicate, schema, start, end)
        if nan_operand:
            assert want == [], (start, end)  # the scan kernels below answer: nothing
        else:
            got = kernels.sorted_range(pax, predicate, schema, clause, start, end)
            assert list(got) == want, (start, end)
        for backend in _BACKENDS:
            with kernels.use_backend(backend), mock.patch.object(kernels, "_NUMPY_MIN_ROWS", 0):
                assert kernels.filter_range(pax, predicate, schema, start, end) == want
        if flags is not None and not nan_operand:
            # With pruning flags the run either declines or is exactly what the kernels keep:
            # a pruned row never comes back.
            pruned = flags[start:end]
            got = kernels.sorted_range(pax, predicate, schema, clause, start, end, pruned)
            kept = kernels.filter_ranges(pax, predicate, schema, start, end, pruned)
            assert got is None or list(got) == list(kept), (start, end)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(-3.0, 3.0, allow_nan=False), max_size=12),
    position=st.integers(0, 12),
    hole=st.sampled_from([math.nan, None]),
    op=st.sampled_from(list(Operator)),
)
def test_the_sorted_run_declines_on_nan_and_none(values, position, hole, op):
    column = sorted(values)
    column.insert(min(position, len(column)), hole)
    schema = Schema.of(("c", FieldType.DOUBLE), name="holes")
    pax = PaxBlock(schema, [column], len(column))
    operands = (0.0, 1.0) if op is Operator.BETWEEN else (0.0,)
    predicate = Predicate([Comparison(1, op, operands)])
    assert pax.unordered_value(0) == ("NaN" if hole is not None else "None")
    for start in range(len(column)):
        for end in range(start, len(column) + 1):
            assert kernels.sorted_range(
                pax, predicate, schema, predicate.clauses[0], start, end
            ) is None
