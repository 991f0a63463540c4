"""Differential tests for the columnar filter kernels (``repro.engine.kernels``).

The python reference backend and the optional numpy fast path must agree bit-for-bit with
each other and with row-at-a-time predicate evaluation — on randomized numeric blocks, on
mixed-type blocks the numpy backend must refuse, and at the exactness boundaries (int64
limits, 2**53 int/float cross-comparisons) where float64 rounding could flip a bound.  The
numpy zone-pruning flags (``kernels._zone_flags_numpy``) are held to the same standard against
the zone map's own comprehension.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.hail.predicate import Comparison, Operator, Predicate
from repro.layouts.pax import PaxBlock
from repro.layouts.schema import FieldType, Schema
from repro.layouts.zonemap import ZoneMap, ranges_disjoint

_SCHEMA = Schema.of(
    ("k", FieldType.INT),
    ("v", FieldType.DOUBLE),
    ("s", FieldType.STRING),
    name="kernels",
)

_OPS = (Operator.LT, Operator.LE, Operator.GT, Operator.GE, Operator.EQ)


def _random_block(rng: random.Random, num_rows: int) -> PaxBlock:
    records = [
        (rng.randrange(-50, 50), rng.uniform(-25.0, 25.0), rng.choice("abcde") * 3)
        for _ in range(num_rows)
    ]
    return PaxBlock.from_records(_SCHEMA, records)


def _random_predicate(rng: random.Random, attributes=("k", "v")) -> Predicate:
    predicate = None
    for _ in range(rng.randrange(1, 4)):
        attribute = rng.choice(attributes)
        if rng.random() < 0.3:
            low = rng.randrange(-50, 50)
            clause = Predicate.between(attribute, low, low + rng.randrange(0, 40))
        else:
            operand = rng.randrange(-50, 50) if rng.random() < 0.5 else rng.uniform(-50, 50)
            clause = Predicate.comparison(attribute, rng.choice(_OPS), operand)
        predicate = clause if predicate is None else Predicate(predicate.clauses + clause.clauses)
    return predicate


def _brute_force(pax: PaxBlock, predicate: Predicate, start: int, end: int) -> list[int]:
    return [
        row
        for row in range(start, end)
        if predicate.matches(pax.record(row), pax.schema)
    ]


def _pruned_outside(windows, start: int, end: int):
    """The zone-pruning flags that keep exactly ``windows`` of ``[start, end)``: 1 on every
    row outside them, ``None`` when there is none."""
    flags = bytearray(b"\1" * (end - start))
    for window_start, window_end in windows:
        flags[window_start - start : window_end - start] = bytes(window_end - window_start)
    return bytes(flags) if 1 in flags else None


# --------------------------------------------------------------------------- backend agreement
def test_python_backend_matches_row_at_a_time():
    rng = random.Random(601)
    with kernels.use_backend("python"):
        for _ in range(60):
            pax = _random_block(rng, rng.randrange(0, 120))
            predicate = _random_predicate(rng)
            start = rng.randrange(0, max(1, pax.num_rows + 1))
            end = rng.randrange(start, pax.num_rows + 1)
            assert kernels.filter_range(pax, predicate, _SCHEMA, start, end) == _brute_force(
                pax, predicate, start, end
            )


@pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy not installed")
def test_numpy_backend_bit_identical_to_python(monkeypatch):
    """The numpy kernels themselves: on windows this narrow the dispatcher runs the reference
    backend, so ``use_backend("numpy")`` alone would compare it with itself.  Covers the
    single-window kernel, called directly, and the hull of a flagged window (gaps included),
    with the dispatch minimum lowered to 0 and the numpy calls that answered counted."""
    rng = random.Random(602)
    compared = hulls = 0
    numpy_kernel = kernels._filter_range_numpy
    answered = []

    def counting(*args):
        result = numpy_kernel(*args)
        answered.append(result is not None)
        return result

    for _ in range(80):
        pax = _random_block(rng, rng.randrange(0, 120))
        predicate = _random_predicate(rng)
        start = rng.randrange(0, max(1, pax.num_rows + 1))
        end = rng.randrange(start, pax.num_rows + 1)
        with kernels.use_backend("python"):
            reference = kernels.filter_range(pax, predicate, _SCHEMA, start, end)
        fast = kernels._filter_range_numpy(pax, predicate, _SCHEMA, start, end)
        if fast is not None:
            compared += 1
            assert fast == reference
        cuts = sorted(rng.randrange(0, pax.num_rows + 1) for _ in range(2 * rng.randrange(2, 6)))
        windows = list(zip(cuts[::2], cuts[1::2]))
        pruned = _pruned_outside(windows, 0, pax.num_rows)
        with kernels.use_backend("python"):
            reference = [
                row
                for start, end in windows
                for row in kernels.filter_range(pax, predicate, _SCHEMA, start, end)
            ]
            got = kernels.filter_ranges(pax, predicate, _SCHEMA, 0, pax.num_rows, pruned)
            assert got == reference
        with kernels.use_backend("numpy"), monkeypatch.context() as patch:
            patch.setattr(kernels, "_NUMPY_MIN_ROWS", 0)
            patch.setattr(kernels, "_filter_range_numpy", counting)
            answered.clear()
            fast = kernels.filter_ranges(pax, predicate, _SCHEMA, 0, pax.num_rows, pruned)
        assert fast == reference
        hulls += answered == [True]
    assert compared > 40 and hulls > 40


@pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("ranges", [False, True])
def test_numpy_runs_only_from_its_minimum_window(monkeypatch, ranges):
    """On the numpy backend, a window (or a multi-window hull) narrower than
    ``_NUMPY_MIN_ROWS`` never reaches the numpy kernel; one at least that wide does."""
    rng = random.Random(606)
    pax = _random_block(rng, 2 * kernels._NUMPY_MIN_ROWS)
    predicate = Predicate.comparison("k", Operator.GE, 0)
    calls = []
    numpy_kernel = kernels._filter_range_numpy

    def counting(*args):
        calls.append(args[3:5])
        return numpy_kernel(*args)

    monkeypatch.setattr(kernels, "_filter_range_numpy", counting)
    with kernels.use_backend("numpy"):
        for width in (2, 9, kernels._NUMPY_MIN_ROWS - 1, kernels._NUMPY_MIN_ROWS, pax.num_rows):
            calls.clear()
            start = pax.num_rows - width
            if ranges:  # two windows whose hull is [start, num_rows)
                windows = [(start, start + 1), (pax.num_rows - 1, pax.num_rows)]
                pruned = _pruned_outside(windows, start, pax.num_rows)
                result = kernels.filter_ranges(pax, predicate, _SCHEMA, start, pax.num_rows, pruned)
                expected = [r for a, b in windows for r in _brute_force(pax, predicate, a, b)]
            else:
                result = kernels.filter_range(pax, predicate, _SCHEMA, start, pax.num_rows)
                expected = _brute_force(pax, predicate, start, pax.num_rows)
            assert result == expected
            wide = width >= kernels._NUMPY_MIN_ROWS
            assert calls == ([(start, pax.num_rows)] if wide else []), width


@pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy not installed")
def test_numpy_backend_refuses_string_columns():
    pax = _random_block(random.Random(603), 40)
    predicate = Predicate.comparison("s", Operator.EQ, "aaa")
    # The typed view does not exist for strings, so the fast path must return None ...
    assert kernels._filter_range_numpy(pax, predicate, _SCHEMA, 0, pax.num_rows) is None
    # ... and the dispatcher must still produce the right answer via the fallback.
    with kernels.use_backend("numpy"):
        result = kernels.filter_range(pax, predicate, _SCHEMA, 0, pax.num_rows)
    assert result == _brute_force(pax, predicate, 0, pax.num_rows)


@pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy not installed")
def test_numpy_backend_exactness_boundaries():
    """Operands past int64/2**53 force the fallback; answers stay identical anyway.

    The block is far narrower than ``_NUMPY_MIN_ROWS``, so the refusals are asserted on the
    numpy kernel itself; the dispatcher's answers are checked besides."""
    big = Schema.of(("b", FieldType.BIGINT), name="big")
    pax = PaxBlock.from_records(big, [(2**53 + 1,), (2**53,), (-(2**53) - 1,), (7,)])
    cases = [
        Predicate.comparison("b", Operator.GT, 2**63),  # operand outside int64
        Predicate.comparison("b", Operator.GT, float(2**53)),  # float vs huge ints
        Predicate.comparison("b", Operator.EQ, True),  # bool operand: never vectorized
    ]
    for predicate in cases:
        assert kernels._filter_range_numpy(pax, predicate, big, 0, pax.num_rows) is None
        with kernels.use_backend("python"):
            reference = kernels.filter_range(pax, predicate, big, 0, pax.num_rows)
        with kernels.use_backend("numpy"):
            assert kernels.filter_range(pax, predicate, big, 0, pax.num_rows) == reference
    # The column itself exceeds 2**53, so a float comparison must not promote it.
    assert pax.int_column_fits_float(0) is False
    assert (
        kernels._filter_range_numpy(
            pax, Predicate.comparison("b", Operator.GT, 1.5), big, 0, pax.num_rows
        )
        is None
    )


def test_filter_ranges_concatenates_windows_in_order():
    pax = _random_block(random.Random(605), 90)
    predicate = Predicate.comparison("k", Operator.GE, 0)
    windows = [(0, 30), (45, 60), (60, 90)]
    expected = [row for start, end in windows for row in _brute_force(pax, predicate, start, end)]
    pruned = _pruned_outside(windows, 0, 90)
    assert kernels.filter_ranges(pax, predicate, _SCHEMA, 0, 90, pruned) == expected
    assert kernels.filter_ranges(pax, None, _SCHEMA, 5, 8) == [5, 6, 7]
    assert kernels.filter_ranges(pax, None, _SCHEMA, 5, 8, b"\0\1\0") == [5, 7]


# --------------------------------------------------------------------------- zone flags
_EDGES = Schema.of(
    ("i", FieldType.INT), ("b", FieldType.BIGINT), ("d", FieldType.DOUBLE), name="edges"
)
_INT_EDGES = (
    0, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, -(2**53), -(2**53) + 1,
    2**63 - 1, -(2**63),
)
_FLOAT_EDGES = (
    math.nan, 0.0, -0.0, math.inf, -math.inf, 2.0**53, 2.0**53 + 2, -(2.0**53), 2.0**63,
    -(2.0**63),
)
_ints = st.one_of(st.integers(-30, 30), st.sampled_from(_INT_EDGES))
_floats = st.one_of(st.floats(-30, 30), st.sampled_from(_FLOAT_EDGES))
#: Every operand kind a clause may carry, numpy-inexact ones included: past int64, bool, str.
_zone_operand = st.one_of(
    _ints, _floats, st.sampled_from((2**63, -(2**63) - 1, True, False, "m", None))
)


@st.composite
def _zone_predicates(draw, rows):
    """1-3 clauses; an operand is often a value of the block, so zone edges are hit."""
    values = [value for row in rows for value in row]
    operand = st.one_of(_zone_operand, st.sampled_from(values))
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        # "zz" is not in the schema and position 9 is outside it: both prune nothing.
        attribute = draw(st.sampled_from(["i", "b", "d", "d", "zz", 9]))
        op = draw(st.sampled_from(list(Operator)))
        arity = 2 if op is Operator.BETWEEN else 1
        clauses.append(Comparison(attribute, op, tuple(draw(operand) for _ in range(arity))))
    return Predicate(clauses)


@pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy not installed")
@settings(max_examples=120, deadline=None)
@given(
    distinct=st.lists(st.tuples(_ints, _ints, _floats), min_size=1, max_size=40),
    extra=st.integers(0, 32),
    shuffle=st.randoms(use_true_random=False),
    margins=st.tuples(st.integers(0, 16), st.integers(0, 16)),
    data=st.data(),
)
def test_numpy_zone_flags_equal_the_comprehension(distinct, extra, shuffle, margins, data):
    """The numpy flags of one-row zones, called directly, are the comprehension's flags
    whenever numpy does not decline — per clause against :func:`ranges_disjoint` on ``(v, v)``,
    and OR-ed over the predicate by ``ZoneMap.pruned_rows`` with numpy as its column backend.
    A block is at least ``_NUMPY_MIN_ROWS`` rows: a few drawn rows, repeated and shuffled."""
    rows = [distinct[i % len(distinct)] for i in range(kernels._NUMPY_MIN_ROWS + extra)]
    shuffle.shuffle(rows)
    predicate = data.draw(_zone_predicates(distinct))
    pax = PaxBlock.from_records(_EDGES, rows)
    start, end = margins[0], len(rows) - margins[1]
    for clause in predicate.clauses:
        try:
            index = clause.attribute_index(_EDGES)
        except (KeyError, IndexError):
            continue
        low, high = clause.value_range()
        fast = kernels._zone_flags_numpy(pax, index, low, high, start, end)
        column = pax.columns[index][start:end]
        assert fast is None or fast == bytes(
            ranges_disjoint(low, high, value, value) for value in column
        )
    zone_map = ZoneMap.build(pax, 1)
    assert zone_map.pruned_rows(
        predicate, _EDGES, start, end, kernels._zone_flags_numpy
    ) == zone_map.pruned_rows(predicate, _EDGES, start, end)
    assert zone_map.partition_zones == {}  # one-row zones are read off the column, never paired


@pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy not installed")
def test_numpy_zone_flags_decline_only_where_inexact():
    """Exact cases answer; every inexact operand or column declines; and the dispatcher
    :func:`kernels.zone_flags` runs numpy only on the numpy backend, from its minimum window."""
    rows = [(value, value, float(value)) for value in range(-150, 150)]
    rows[7] = (rows[7][0], 2**53 + 1, rows[7][2])  # "b" no longer fits a float64 exactly
    pax = PaxBlock.from_records(_EDGES, rows)
    want = bytes(not -10 <= value <= 10 for value in range(-150, 150))
    for index in (0, 1, 2):
        assert kernels._zone_flags_numpy(pax, index, -10, 10, 0, 300) == (
            want if index != 1 else bytes(
                not -10 <= value <= 10 for value in pax.columns[1]
            )
        )
    assert kernels._zone_flags_numpy(pax, 0, -10.5, 10.5, 0, 300) == want
    assert kernels._zone_flags_numpy(pax, 2, None, 10, 0, 300) == bytes(
        value > 10 for value in range(-150, 150)
    )
    for index, low, high in [
        (0, None, None),  # no bound: nothing to compare
        (0, "m", None),  # str operand
        (0, True, None),  # bool operand
        (0, None, 2**63),  # past int64
        (2, 2**53 + 1, None),  # int past 2**53 against a float column
        (1, 1.5, None),  # float against an int column past 2**53
    ]:
        assert kernels._zone_flags_numpy(pax, index, low, high, 0, 300) is None, (index, low)
    with kernels.use_backend("numpy"):
        assert kernels.zone_flags(pax, 0, -10, 10, 0, 300) == want
        narrow = kernels._NUMPY_MIN_ROWS - 1
        assert kernels.zone_flags(pax, 0, -10, 10, 0, narrow) is None
    with kernels.use_backend("python"):
        assert kernels.zone_flags(pax, 0, -10, 10, 0, 300) is None


# --------------------------------------------------------------------------- backend control
def test_backend_selection_guards():
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")
    if not kernels.HAVE_NUMPY:
        with pytest.raises(RuntimeError):
            kernels.set_backend("numpy")
    previous = kernels.active_backend()
    with kernels.use_backend("python"):
        assert kernels.active_backend() == "python"
    assert kernels.active_backend() == previous


# --------------------------------------------------------------------------- no-copy blocks
def test_pax_no_copy_construction_and_typed_views():
    columns = [(3, 1, 2), (1.0, 2.0, 3.0), ("a", "b", "c")]
    adopted = PaxBlock(_SCHEMA, columns, 3)
    assert adopted.columns[0] is columns[0]  # a tuple is adopted, not copied
    lists = [list(column) for column in columns]
    copied = PaxBlock(_SCHEMA, lists, 3)
    assert copied.columns[0] is not lists[0]  # any other sequence becomes a tuple
    assert copied.columns[0] == tuple(lists[0])
    typed = adopted.typed_column_at(0)
    assert typed is not None and list(typed) == [3, 1, 2]
    assert adopted.typed_column_at(0) is typed  # cached
    assert adopted.typed_column_at(2) is None  # strings have no typed view
    assert adopted.int_column_fits_float(0) is True
