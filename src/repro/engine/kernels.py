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
  clauses become vectorized comparisons (:data:`repro.query.predicate.COMPARE` applied to the
  whole column), and masks are AND-ed as boolean arrays.  The backend refuses (falls back to
  the reference backend) whenever exact agreement with Python comparison semantics is not
  guaranteed — non-numeric columns, operands outside the int64 range, or int/float
  cross-comparisons past 2**53 where float64 rounding could flip a bound.

Which kernel runs is decided by the window, not by a setting: numpy pays a fixed cost of
about ten microseconds per clause per call, which the reference backend's scan beats on
narrow windows — and the windows an index scan hands over are narrow (a clustered index keeps
a few partitions of a block).  So on the numpy backend a window (or, for
:func:`filter_ranges`, the hull of its unpruned rows) narrower than :data:`_NUMPY_MIN_ROWS`
runs the reference backend; "numpy" means "numpy where it wins".

Zone pruning reaches the kernels as a per-row flag string:
:meth:`~repro.layouts.zonemap.ZoneMap.pruned_rows` flags the rows of the lookup window whose
partitions cannot match, and :func:`filter_ranges` takes the window and its flags in one call
— numpy seeds its clause mask with the inverted flags, the reference backend compresses the
window by them.  At partition size 1 the flags themselves are a comparison of the column
against the clause bounds, which :func:`zone_flags` runs in numpy under the same window rule
and the same exactness guards as the filter.

The Hadoop baseline's text block parser filters its parsed columns through the same scan
table (:func:`clause_positions`).  Both backends are bit-for-bit equivalent by construction
and by test (``tests/test_engine_kernels.py`` cross-checks them against each other and
against the row-at-a-time evaluation on randomized blocks).  Select the backend globally with
:func:`set_backend` or temporarily with :func:`use_backend`; the default is numpy when it is
installed.  numpy itself is imported at the first dispatch that runs it (:func:`_numpy`), not
with this module, so a process whose windows all stay under :data:`_NUMPY_MIN_ROWS` never
loads it; if that import fails, the process moves to the python backend and the dispatch
answers in Python.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from importlib.util import find_spec
from itertools import compress
from typing import Iterator, Optional, Sequence

from repro.layouts.pax import PaxBlock
from repro.query.predicate import COMPARE, Comparison, Operator, Predicate
from repro.query.schema import Schema

#: True when numpy is installed in this interpreter (found here, imported by :func:`_numpy`).
HAVE_NUMPY: bool = find_spec("numpy") is not None

#: The numpy module, bound by :func:`_numpy` at the first numpy dispatch.
_np = None

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

    Census keep list (``tests/test_census.py``): user API.
    """
    global _backend
    if name not in ("python", "numpy"):
        raise ValueError(f"unknown kernel backend {name!r}; choose 'python' or 'numpy'")
    if name == "numpy" and not HAVE_NUMPY:
        raise RuntimeError("numpy backend requested but numpy is not importable")
    _backend = name


def _numpy():
    """The numpy module, imported on the first call; ``None`` when that import fails.

    A failed import moves the process to the python backend for good, as a missing numpy
    at startup would, so the dispatch that met it answers in Python instead of raising.
    """
    global _np, _backend, HAVE_NUMPY
    if _np is None:
        try:
            import numpy
        except ImportError:
            HAVE_NUMPY, _backend = False, "python"
            return None
        _np = numpy
    return _np


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the kernel backend (the differential tests' entry point).

    Restores the previous backend on exit, or python when numpy failed to import meanwhile
    (:func:`_numpy`).

    Census keep list (``tests/test_census.py``): ground truth for tests (the Python backend is the
    numpy one's reference).
    """
    previous = _backend
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous if HAVE_NUMPY else "python")


# --------------------------------------------------------------------------- dispatch
def filter_range(
    pax: PaxBlock,
    predicate: Optional[Predicate],
    schema: Schema,
    start: int,
    end: int,
) -> Sequence[int]:
    """Row ids in ``[start, end)`` satisfying ``predicate``, via the active backend.

    ``predicate=None`` selects the whole window, as a ``range`` (which
    :meth:`~repro.layouts.pax.PaxBlock.batch` slices instead of gathering).  The numpy
    backend evaluates only windows of at least :data:`_NUMPY_MIN_ROWS` rows; a narrower one
    runs the reference backend, which is faster there.  It also silently defers to the
    reference backend for windows it cannot evaluate with guaranteed-identical semantics
    (non-numeric columns, out-of-range operands); results are backend-independent either way.
    """
    if predicate is None:
        return range(start, end)
    if start >= end:
        return []
    if _backend == "numpy" and end - start >= _NUMPY_MIN_ROWS:
        result = _filter_range_numpy(pax, predicate, schema, start, end)
        if result is not None:
            return result
    return _filter_range_python(pax, predicate, schema, start, end)


def filter_ranges(
    pax: PaxBlock,
    predicate: Optional[Predicate],
    schema: Schema,
    start: int,
    end: int,
    pruned: Optional[bytes] = None,
) -> Sequence[int]:
    """Row ids in ``[start, end)`` satisfying ``predicate`` that zone pruning kept.

    The zone-map pruning entry point, one call per block: ``pruned`` is
    :meth:`~repro.layouts.zonemap.ZoneMap.pruned_rows`' flag string over the window (one byte
    per row, 1 = pruned), or ``None`` when nothing is pruned — then this is
    :func:`filter_range`.  A pruned row is never returned whatever its values, so a stale
    synopsis cannot leak it back in.

    The predicate runs only over the hull of the unpruned rows, so a block clustered on the
    clause attribute is not scanned in full.  On the numpy backend a hull of at least
    :data:`_NUMPY_MIN_ROWS` rows is one numpy call whose clause mask is seeded with the
    inverted flags; otherwise — or when numpy declines — the reference backend compresses the
    hull by the flags and refines the survivors clause by clause (:data:`_REFINE`).
    """
    if pruned is None:
        return filter_range(pax, predicate, schema, start, end)
    first = pruned.find(0)
    if first < 0:
        return []
    last = pruned.rfind(0) + 1
    flags = pruned[first:last]
    start, end = start + first, start + last
    if predicate is not None and _backend == "numpy" and end - start >= _NUMPY_MIN_ROWS:
        result = _filter_range_numpy(pax, predicate, schema, start, end, flags)
        if result is not None:
            return result
    positions = list(compress(range(start, end), flags.translate(_KEPT)))
    if predicate is not None:
        for clause in predicate.clauses:
            if not positions:
                break
            column = pax.columns[clause.attribute_index(schema)]
            positions = _REFINE[clause.op](column, positions, *clause.operands)
    return positions


def sorted_range(
    pax: PaxBlock,
    predicate: Predicate,
    schema: Schema,
    clause: Comparison,
    start: int,
    end: int,
    pruned: Optional[bytes] = None,
    ordered: bool = False,
) -> Optional[Sequence[int]]:
    """Row ids in ``[start, end)`` satisfying ``predicate`` over a window sorted on
    ``clause``'s attribute, or ``None`` to decline (then :func:`filter_ranges` answers).

    An index scan's post-filter (paper Figure 2, step 3).  ``clause`` is the predicate's first
    clause on the attribute the window is sorted on — the one the clustered index looked up
    to find the window's partitions — and has no NaN operand: a NaN compares false with every
    value, so a bisect would return the whole window.  The job's
    :class:`~repro.engine.planner.BoundQuery` finds that clause and checks its operands once
    (``first_clauses``).  The column is sorted, so the clause holds on one run of consecutive
    rows, whose bounds two C-level bisects find (:data:`_BOUNDS`) without testing a value in
    between.  The run is returned as a ``range`` (no position list is built) unless another
    clause refines it (:data:`_REFINE`).  ``pruned`` is :func:`filter_ranges`' zone-pruning
    flag string over the window: the run is used only when it holds no pruned row.

    Declines on an empty window and on a column whose values ``<`` does not order (a NaN or a
    ``None``, :meth:`~repro.layouts.pax.PaxBlock.unordered_value`): a bisect over those can
    miss matches.  ``ordered=True`` says the caller has already checked that column — an
    index-scanned payload checks its sort column once
    (:meth:`~repro.hail.hail_block.HailBlock.sort_breaker`) — so it is not checked per window.
    """
    if start >= end:
        return None
    index = clause.attribute_index(schema)
    if not ordered and pax.unordered_value(index) is not None:
        return None
    low, high = _BOUNDS[clause.op](pax.columns[index], start, end, *clause.operands)
    if pruned is not None and pruned.find(1, low - start, high - start) >= 0:
        return None
    rows: Sequence[int] = range(low, high)  # empty when BETWEEN's bounds cross (high < low)
    for other in predicate.clauses:
        if other is clause:
            continue
        if not rows:
            return []
        column = pax.columns[other.attribute_index(schema)]
        rows = _REFINE[other.op](column, rows, *other.operands)
    return rows


def zone_flags(
    pax: PaxBlock, index: int, low, high, start: int, end: int
) -> Optional[bytes]:
    """One clause's pruning flags over one-row zones, in numpy, or ``None`` to decline.

    The numeric backend :meth:`~repro.layouts.zonemap.ZoneMap.pruned_rows` takes at partition
    size 1, where row ``v``'s zone is ``(v, v)``: the flag is ``v > high or v < low`` over
    column ``index`` of ``[start, end)``.  It runs only on the numpy backend and only on
    windows of at least :data:`_NUMPY_MIN_ROWS` rows (:func:`_zone_flags_numpy`); the caller's
    comprehension is the reference everywhere else.
    """
    if _backend == "numpy" and end - start >= _NUMPY_MIN_ROWS:
        return _zone_flags_numpy(pax, index, low, high, start, end)
    return None


# --------------------------------------------------------------------------- python backend
#: Clause one over a window: the row ids (numbered from ``start``) whose value satisfies the
#: operator.  One comprehension per operator with its comparison inline: mapping
#: :data:`~repro.query.predicate.COMPARE`'s function over the column is slower on int columns.
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


#: A clause over a sorted window ``[start, end)``: the bounds ``(low, high)`` of the run of
#: rows satisfying it.  Under a total order ``v < x`` holds on a prefix of the window (up to
#: ``bisect_left``), ``v <= x`` up to ``bisect_right``, and ``>``/``>=`` on the rest.
_BOUNDS = {
    Operator.EQ: lambda column, start, end, x: (
        bisect_left(column, x, start, end),
        bisect_right(column, x, start, end),
    ),
    Operator.LT: lambda column, start, end, x: (start, bisect_left(column, x, start, end)),
    Operator.LE: lambda column, start, end, x: (start, bisect_right(column, x, start, end)),
    Operator.GT: lambda column, start, end, x: (bisect_right(column, x, start, end), end),
    Operator.GE: lambda column, start, end, x: (bisect_left(column, x, start, end), end),
    Operator.BETWEEN: lambda column, start, end, low, high: (
        bisect_left(column, low, start, end),
        bisect_right(column, high, start, end),
    ),
}


#: Flag bytes to keep bytes: 0 (kept by zone pruning) -> 1, 1 (pruned) -> 0, for ``compress``.
_KEPT = bytes.maketrans(b"\0\1", b"\1\0")


def clause_positions(clause: Comparison, values: Sequence) -> list[int]:
    """Positions in ``values`` that satisfy ``clause`` (the scan table over a whole column)."""
    return _SCAN[clause.op](values, 0, *clause.operands)


def _filter_range_python(
    pax: PaxBlock, predicate: Predicate, schema: Schema, start: int, end: int
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
    # rounds values past 2**53; :func:`_numpy_column` separately bounds the column.
    return True


def _numpy_column(pax: PaxBlock, index: int, operands: Sequence):
    """Column ``index`` as a zero-copy numpy array, or ``None`` when comparing it with any of
    ``operands`` might not agree exactly with Python (or numpy failed to import)."""
    typed = pax.typed_column_at(index)
    if typed is None:
        return None  # non-numeric (or overflowing) column
    typecode = typed.typecode
    if not all(_operand_exact(operand, typecode) for operand in operands):
        return None
    if typecode == "q" and any(isinstance(operand, float) for operand in operands):
        # int64 column compared against a float operand promotes the column to float64;
        # only exact when every column value fits in 2**53 (PaxBlock tracks the bound).
        if not pax.int_column_fits_float(index):
            return None
    np = _numpy()
    if np is None:
        return None
    return np.frombuffer(typed, dtype=np.int64 if typecode == "q" else np.float64)


def _filter_range_numpy(
    pax: PaxBlock,
    predicate: Predicate,
    schema: Schema,
    start: int,
    end: int,
    pruned: Optional[bytes] = None,
) -> Optional[list[int]]:
    """Numpy fast path, or ``None`` when exact agreement with Python cannot be guaranteed
    (or numpy failed to import).

    ``pruned`` (:func:`filter_ranges`' flag string over ``[start, end)``) seeds the mask the
    clauses AND into, inverted: a flagged row is never returned.
    """
    np = _numpy()
    if np is None:
        return None
    mask = None if pruned is None else np.frombuffer(pruned, dtype=np.uint8) == 0
    for clause in predicate.clauses:
        operands = clause.operands
        column = _numpy_column(pax, clause.attribute_index(schema), operands)
        if column is None:
            return None  # one inexact clause: the whole predicate falls back
        column = column[start:end]
        if clause.op is Operator.BETWEEN:
            low, high = operands
            bits = (column >= low) & (column <= high)
        else:
            bits = COMPARE[clause.op](column, operands[0])
        mask = bits if mask is None else (mask & bits)
        if not mask.any():
            return []
    return (np.flatnonzero(mask) + start).tolist()


def _zone_flags_numpy(
    pax: PaxBlock, index: int, low, high, start: int, end: int
) -> Optional[bytes]:
    """The numpy form of :func:`zone_flags`, or ``None`` when exactness is not guaranteed.

    ``(column > high) | (column < low)`` over ``[start, end)``, an open (``None``) bound
    dropping its half; the guards are :func:`_filter_range_numpy`'s, applied to the bounds.
    """
    bounds = [bound for bound in (low, high) if bound is not None]
    column = _numpy_column(pax, index, bounds) if bounds else None
    if column is None:
        return None
    column = column[start:end]
    if low is None:
        bits = column > high
    elif high is None:
        bits = column < low
    else:
        bits = (column > high) | (column < low)
    return bits.tobytes()
