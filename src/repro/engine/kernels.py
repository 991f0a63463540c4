"""Columnar predicate kernels: one dispatch point, two backends, identical semantics.

The vectorized executor used to evaluate predicates with ``list[bool]`` masks — one Python
list per clause, AND-ed pairwise, with an O(n) ``any(mask)`` pass per clause on top.  This
module replaces that pipeline with two interchangeable backends behind one dispatch function
(:func:`filter_range`):

- **python** — the reference backend, pure stdlib.  The first clause is evaluated over the
  candidate window in a single comprehension that emits *surviving row positions* directly
  (the per-operator :data:`_SCAN` table); every later clause refines that position list by
  probing only the survivors (the :data:`_REFINE` table).  This is the bytearray-mask
  pipeline collapsed to its support: representing the mask by the positions of its set bits
  both tracks the surviving-row count for free (``len(positions)``, no ``any`` scan) and
  makes each subsequent clause O(survivors) instead of O(window).
- **numpy** — an optional fast path used when numpy is importable and every filter column of
  the block has a typed ``array`` representation (:meth:`repro.layouts.pax.PaxBlock.typed_column_at`).
  Columns are wrapped zero-copy via ``numpy.frombuffer`` over the array's ``memoryview``,
  clauses become vectorized comparisons (:data:`repro.hail.predicate.COMPARE` applied to the
  whole column), and masks are AND-ed as boolean arrays.  The backend refuses (falls back to
  the reference backend) whenever exact agreement with Python comparison semantics is not
  guaranteed — non-numeric columns, operands outside the int64 range, or int/float
  cross-comparisons past 2**53 where float64 rounding could flip a bound.

Which kernel runs is decided by the window, not by a setting: numpy pays a fixed cost of
about ten microseconds per clause per call, which the reference backend's scan beats on
narrow windows — and the windows an index scan hands over are narrow (a clustered index keeps
a few partitions of a block).  So on the numpy backend a window (or, for
:func:`filter_ranges`, the hull of its windows) narrower than :data:`_NUMPY_MIN_ROWS` runs the
reference backend; "numpy" means "numpy where it wins".

The Hadoop baseline's text block parser filters its parsed columns through the same scan
table (:func:`clause_positions`).  Both backends are bit-for-bit equivalent by construction
and by test (``tests/test_engine_kernels.py`` cross-checks them against each other and
against the row-at-a-time evaluation on randomized blocks).  Select the backend globally with
:func:`set_backend` or temporarily with :func:`use_backend`; the default is numpy when
available.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.hail.predicate import COMPARE, Operator

if TYPE_CHECKING:
    from repro.hail.predicate import Comparison, Predicate
    from repro.layouts.pax import PaxBlock
    from repro.layouts.schema import Schema

try:  # pragma: no cover - exercised indirectly via the backend tests
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments (e.g. CI)
    _np = None

#: True when the numpy fast path is importable in this interpreter.
HAVE_NUMPY: bool = _np is not None

#: Largest integer magnitude a float64 represents exactly; int/float cross-comparisons past
#: this bound may round differently under numpy than under Python and force the fallback.
_EXACT_FLOAT_INT = 2**53
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Narrowest window (rows) the numpy backend evaluates.  Below it the reference backend is
#: faster: numpy's fixed cost per clause per call (``frombuffer``, comparisons, mask AND,
#: ``flatnonzero``) outweighs its per-row saving up to about 250 rows, for one clause and
#: for two (see docs/performance.md, "Kernel dispatch by window size").
_NUMPY_MIN_ROWS = 224

#: The backend :func:`filter_range` dispatches to; a process starts on numpy when available.
_backend: str = "numpy" if HAVE_NUMPY else "python"


def active_backend() -> str:
    """The backend :func:`filter_range` currently dispatches to (``"numpy"`` or ``"python"``)."""
    return _backend


def set_backend(name: str) -> None:
    """Select the kernel backend globally (``"numpy"`` or ``"python"``).

    Requesting numpy without numpy installed raises — silent degradation would make benchmark
    numbers lie about what they measured.
    """
    global _backend
    if name not in ("python", "numpy"):
        raise ValueError(f"unknown kernel backend {name!r}; choose 'python' or 'numpy'")
    if name == "numpy" and not HAVE_NUMPY:
        raise RuntimeError("numpy backend requested but numpy is not importable")
    _backend = name


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the kernel backend (the differential tests' entry point)."""
    previous = _backend
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


# --------------------------------------------------------------------------- dispatch
def filter_range(
    pax: "PaxBlock",
    predicate: Optional["Predicate"],
    schema: "Schema",
    start: int,
    end: int,
) -> list[int]:
    """Row ids in ``[start, end)`` satisfying ``predicate``, via the active backend.

    ``predicate=None`` selects the whole window.  The numpy backend evaluates only windows of
    at least :data:`_NUMPY_MIN_ROWS` rows; a narrower one runs the reference backend, which
    is faster there.  It also silently defers to the reference backend for windows it cannot
    evaluate with guaranteed-identical semantics (non-numeric columns, out-of-range
    operands); results are backend-independent either way.
    """
    if predicate is None or start >= end:
        return list(range(start, end))
    if _backend == "numpy" and end - start >= _NUMPY_MIN_ROWS:
        result = _filter_range_numpy(pax, predicate, schema, start, end)
        if result is not None:
            return result
    return _filter_range_python(pax, predicate, schema, start, end)


def filter_ranges(
    pax: "PaxBlock",
    predicate: Optional["Predicate"],
    schema: "Schema",
    windows: Sequence[tuple[int, int]],
) -> list[int]:
    """Row ids satisfying ``predicate`` across several disjoint ascending row windows.

    The zone-map pruning entry point: the executor hands over only the windows whose
    partitions may match, and the concatenation of per-window results is in ascending row
    order because the windows are.

    On the numpy backend a multi-window block whose hull ``[windows[0].start,
    windows[-1].end)`` spans at least :data:`_NUMPY_MIN_ROWS` rows is **one** kernel call
    (:func:`_filter_ranges_numpy`).  Whenever that call declines — or the hull is narrower,
    or the python backend is active — the per-window loop over :func:`filter_range` runs
    instead and is the reference the hull path is tested against.
    """
    if (
        len(windows) > 1
        and predicate is not None
        and _backend == "numpy"
        and windows[-1][1] - windows[0][0] >= _NUMPY_MIN_ROWS
    ):
        result = _filter_ranges_numpy(pax, predicate, schema, windows)
        if result is not None:
            return result
    matching: list[int] = []
    for start, end in windows:
        matching.extend(filter_range(pax, predicate, schema, start, end))
    return matching


# --------------------------------------------------------------------------- python backend
#: Clause one over a window: the row ids (numbered from ``start``) whose value satisfies the
#: operator.  One comprehension per operator with its comparison inline: mapping
#: :data:`~repro.hail.predicate.COMPARE`'s function over the column is slower on int columns.
_SCAN = {
    Operator.EQ: lambda window, start, x: [i for i, v in enumerate(window, start) if v == x],
    Operator.LT: lambda window, start, x: [i for i, v in enumerate(window, start) if v < x],
    Operator.LE: lambda window, start, x: [i for i, v in enumerate(window, start) if v <= x],
    Operator.GT: lambda window, start, x: [i for i, v in enumerate(window, start) if v > x],
    Operator.GE: lambda window, start, x: [i for i, v in enumerate(window, start) if v >= x],
    Operator.BETWEEN: lambda window, start, low, high: [
        i for i, v in enumerate(window, start) if low <= v <= high
    ],
}

#: A later clause: the surviving row ids whose ``column`` value satisfies the operator.
_REFINE = {
    Operator.EQ: lambda column, rows, x: [i for i in rows if column[i] == x],
    Operator.LT: lambda column, rows, x: [i for i in rows if column[i] < x],
    Operator.LE: lambda column, rows, x: [i for i in rows if column[i] <= x],
    Operator.GT: lambda column, rows, x: [i for i in rows if column[i] > x],
    Operator.GE: lambda column, rows, x: [i for i in rows if column[i] >= x],
    Operator.BETWEEN: lambda column, rows, low, high: [
        i for i in rows if low <= column[i] <= high
    ],
}


def clause_positions(clause: "Comparison", values: Sequence) -> list[int]:
    """Positions in ``values`` that satisfy ``clause`` (the scan table over a whole column)."""
    return _SCAN[clause.op](values, 0, *clause.operands)


def _filter_range_python(
    pax: "PaxBlock", predicate: "Predicate", schema: "Schema", start: int, end: int
) -> list[int]:
    """Reference backend: survivor-position refinement, one table lookup per clause.

    Clause one scans its window exactly once and emits absolute row ids (:data:`_SCAN`);
    clause k probes only the rows that survived clauses 1..k-1 (:data:`_REFINE`).  The
    surviving-row count is ``len(positions)`` — no separate ``any(mask)`` pass — and an empty
    survivor list short-circuits the remaining clauses.
    """
    first, *rest = predicate.clauses
    column = pax.columns[first.attribute_index(schema)]
    positions = _SCAN[first.op](column[start:end], start, *first.operands)
    for clause in rest:
        if not positions:
            return []
        column = pax.columns[clause.attribute_index(schema)]
        positions = _REFINE[clause.op](column, positions, *clause.operands)
    return positions


# --------------------------------------------------------------------------- numpy backend
def _operand_exact(operand, typecode: str) -> bool:
    """Is comparing ``operand`` against a ``typecode`` column exact under float64/int64?"""
    if isinstance(operand, bool) or not isinstance(operand, (int, float)):
        return False
    if isinstance(operand, int):
        if typecode == "q":
            return _INT64_MIN <= operand <= _INT64_MAX
        # Float column: the int operand is converted to float64 — exact only below 2**53.
        return -_EXACT_FLOAT_INT <= operand <= _EXACT_FLOAT_INT
    # Float operand against an int64 column: numpy converts the *column* to float64, which
    # rounds values past 2**53; the caller separately bounds the column (see below).
    return True


def _filter_range_numpy(
    pax: "PaxBlock",
    predicate: "Predicate",
    schema: "Schema",
    start: int,
    end: int,
    keep=None,
) -> Optional[list[int]]:
    """Numpy fast path, or ``None`` when exact agreement with Python cannot be guaranteed.

    ``keep`` (a boolean array over ``[start, end)``) seeds the mask the clauses AND into:
    rows where it is False are never returned.
    """
    np = _np
    mask = keep
    for clause in predicate.clauses:
        typed = pax.typed_column_at(clause.attribute_index(schema))
        if typed is None:
            return None  # non-numeric (or overflowing) column: whole predicate falls back
        typecode = typed.typecode
        operands = clause.operands
        if not all(_operand_exact(operand, typecode) for operand in operands):
            return None
        if typecode == "q" and any(isinstance(operand, float) for operand in operands):
            # int64 column compared against a float operand promotes the column to float64;
            # only exact when every column value fits in 2**53 (PaxBlock tracks the bound).
            if not pax.int_column_fits_float(clause.attribute_index(schema)):
                return None
        dtype = np.int64 if typecode == "q" else np.float64
        column = np.frombuffer(typed, dtype=dtype)[start:end]
        if clause.op is Operator.BETWEEN:
            low, high = operands
            bits = (column >= low) & (column <= high)
        else:
            bits = COMPARE[clause.op](column, operands[0])
        mask = bits if mask is None else (mask & bits)
        if not mask.any():
            return []
    return (np.flatnonzero(mask) + start).tolist()


def _filter_ranges_numpy(
    pax: "PaxBlock",
    predicate: "Predicate",
    schema: "Schema",
    windows: Sequence[tuple[int, int]],
) -> Optional[list[int]]:
    """The numpy hull path of :func:`filter_ranges`, or ``None`` when numpy declines.

    The predicate runs over the hull of ``windows`` with the windows as a boolean keep-mask
    seeded into the clause masks, so a row in a gap is never reported whatever its values (a
    stale synopsis cannot leak a pruned row back in).
    """
    hull_start, hull_end = windows[0][0], windows[-1][1]
    keep = _np.zeros(hull_end - hull_start, dtype=bool)
    for start, end in windows:
        keep[start - hull_start : end - hull_start] = True
    return _filter_range_numpy(pax, predicate, schema, hull_start, hull_end, keep)
