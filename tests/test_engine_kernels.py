"""Differential tests for the columnar filter kernels (``repro.engine.kernels``).

The python reference backend and the optional numpy fast path must agree bit-for-bit with
each other and with row-at-a-time predicate evaluation — on randomized numeric blocks, on
mixed-type blocks the numpy backend must refuse, and at the exactness boundaries (int64
limits, 2**53 int/float cross-comparisons) where float64 rounding could flip a bound.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import kernels
from repro.hail.predicate import Operator, Predicate
from repro.layouts.pax import PaxBlock
from repro.layouts.schema import FieldType, Schema

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
        predicate = clause if predicate is None else predicate.and_(clause)
    return predicate


def _brute_force(pax: PaxBlock, predicate: Predicate, start: int, end: int) -> list[int]:
    return [
        row
        for row in range(start, end)
        if predicate.matches(pax.record(row), pax.schema)
    ]


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
def test_numpy_backend_bit_identical_to_python():
    rng = random.Random(602)
    for _ in range(80):
        pax = _random_block(rng, rng.randrange(0, 120))
        predicate = _random_predicate(rng)
        start = rng.randrange(0, max(1, pax.num_rows + 1))
        end = rng.randrange(start, pax.num_rows + 1)
        with kernels.use_backend("python"):
            reference = kernels.filter_range(pax, predicate, _SCHEMA, start, end)
        with kernels.use_backend("numpy"):
            fast = kernels.filter_range(pax, predicate, _SCHEMA, start, end)
        assert fast == reference


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
    """Operands past int64/2**53 force the fallback; answers stay identical anyway."""
    big = Schema.of(("b", FieldType.BIGINT), name="big")
    pax = PaxBlock.from_records(big, [(2**53 + 1,), (2**53,), (-(2**53) - 1,), (7,)])
    cases = [
        Predicate.comparison("b", Operator.GT, 2**63),  # operand outside int64
        Predicate.comparison("b", Operator.GT, float(2**53)),  # float vs huge ints
        Predicate.comparison("b", Operator.EQ, True),  # bool operand: never vectorized
    ]
    for predicate in cases:
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
    assert kernels.filter_ranges(pax, predicate, _SCHEMA, windows) == expected
    assert kernels.filter_ranges(pax, None, _SCHEMA, [(5, 8)]) == [5, 6, 7]


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
