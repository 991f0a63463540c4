"""Columnar predicate kernels: one dispatch point, two backends, identical semantics.

The vectorized executor used to evaluate predicates with ``list[bool]`` masks — one Python
list per clause, AND-ed pairwise, with an O(n) ``any(mask)`` pass per clause on top.  This
module replaces that pipeline with two interchangeable backends behind one dispatch function
(:func:`filter_range`):

- **python** — the reference backend, pure stdlib.  The first clause is evaluated over the
  candidate window in a single comprehension that emits *surviving row positions* directly;
  every later clause refines that position list by probing only the survivors.  This is the
  bytearray-mask pipeline collapsed to its support: representing the mask by the positions of
  its set bits both tracks the surviving-row count for free (``len(positions)``, no ``any``
  scan) and makes each subsequent clause O(survivors) instead of O(window).
- **numpy** — an optional fast path used when numpy is importable and every filter column of
  the block has a typed ``array`` representation (:meth:`repro.layouts.pax.PaxBlock.typed_column_at`).
  Columns are wrapped zero-copy via ``numpy.frombuffer`` over the array's ``memoryview``,
  clauses become vectorized comparisons, and masks are AND-ed as boolean arrays.  The backend
  refuses (falls back to the reference backend) whenever exact agreement with Python
  comparison semantics is not guaranteed — non-numeric columns, operands outside the int64
  range, or int/float cross-comparisons past 2**53 where float64 rounding could flip a bound.

Both backends are bit-for-bit equivalent by construction and by test
(``tests/test_engine_kernels.py`` cross-checks them against each other and against the
row-at-a-time evaluation on randomized blocks).  Select the backend globally with
:func:`set_backend` or temporarily with :func:`use_backend`; the default is numpy when
available.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:  # imported lazily at runtime to keep this module import-light
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

    ``predicate=None`` selects the whole window.  The numpy backend silently defers to the
    reference backend for windows it cannot evaluate with guaranteed-identical semantics
    (non-numeric columns, out-of-range operands); results are backend-independent either way.
    """
    if predicate is None or start >= end:
        return list(range(start, end))
    if _backend == "numpy":
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

    On the numpy backend a multi-window block is **one** kernel call: the predicate runs over
    the hull ``[windows[0].start, windows[-1].end)`` with the windows as a boolean keep-mask
    seeded into the clause masks, so a row in a gap is never reported whatever its values (a
    stale synopsis cannot leak a pruned row back in).  Whenever that call declines — or the
    python backend is active — the per-window loop over :func:`filter_range` runs instead and
    is the reference the hull path is tested against.
    """
    if len(windows) > 1 and predicate is not None and _backend == "numpy":
        hull_start, hull_end = windows[0][0], windows[-1][1]
        keep = _np.zeros(hull_end - hull_start, dtype=bool)
        for start, end in windows:
            keep[start - hull_start : end - hull_start] = True
        result = _filter_range_numpy(pax, predicate, schema, hull_start, hull_end, keep)
        if result is not None:
            return result
    matching: list[int] = []
    for start, end in windows:
        matching.extend(filter_range(pax, predicate, schema, start, end))
    return matching


# --------------------------------------------------------------------------- python backend
def _filter_range_python(
    pax: "PaxBlock", predicate: "Predicate", schema: "Schema", start: int, end: int
) -> list[int]:
    """Reference backend: survivor-position refinement, operators resolved once per clause.

    Clause one scans its window exactly once and emits absolute row ids; clause k probes only
    the rows that survived clauses 1..k-1.  The surviving-row count is ``len(positions)`` —
    no separate ``any(mask)`` pass — and an empty survivor list short-circuits the remaining
    clauses.
    """
    positions: Optional[list[int]] = None
    for clause in predicate.clauses:
        column = pax.columns[clause.attribute_index(schema)]
        op = clause.op.value
        if positions is None:
            window = column[start:end]
            if op == "between":
                low, high = clause.operands
                positions = [i for i, v in enumerate(window, start) if low <= v <= high]
            elif op == "=":
                x = clause.operands[0]
                positions = [i for i, v in enumerate(window, start) if v == x]
            elif op == "<":
                x = clause.operands[0]
                positions = [i for i, v in enumerate(window, start) if v < x]
            elif op == "<=":
                x = clause.operands[0]
                positions = [i for i, v in enumerate(window, start) if v <= x]
            elif op == ">":
                x = clause.operands[0]
                positions = [i for i, v in enumerate(window, start) if v > x]
            elif op == ">=":
                x = clause.operands[0]
                positions = [i for i, v in enumerate(window, start) if v >= x]
            else:
                raise ValueError(f"unsupported operator {clause.op!r} in vectorized evaluation")
        else:
            if op == "between":
                low, high = clause.operands
                positions = [i for i in positions if low <= column[i] <= high]
            elif op == "=":
                x = clause.operands[0]
                positions = [i for i in positions if column[i] == x]
            elif op == "<":
                x = clause.operands[0]
                positions = [i for i in positions if column[i] < x]
            elif op == "<=":
                x = clause.operands[0]
                positions = [i for i in positions if column[i] <= x]
            elif op == ">":
                x = clause.operands[0]
                positions = [i for i in positions if column[i] > x]
            elif op == ">=":
                x = clause.operands[0]
                positions = [i for i in positions if column[i] >= x]
            else:
                raise ValueError(f"unsupported operator {clause.op!r} in vectorized evaluation")
        if not positions:
            return []
    return positions if positions is not None else list(range(start, end))


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
        op = clause.op.value
        if op == "between":
            low, high = operands
            bits = (column >= low) & (column <= high)
        elif op == "=":
            bits = column == operands[0]
        elif op == "<":
            bits = column < operands[0]
        elif op == "<=":
            bits = column <= operands[0]
        elif op == ">":
            bits = column > operands[0]
        elif op == ">=":
            bits = column >= operands[0]
        else:
            raise ValueError(f"unsupported operator {clause.op!r} in vectorized evaluation")
        mask = bits if mask is None else (mask & bits)
        if not mask.any():
            return []
    if mask is None:
        return list(range(start, end))
    return (np.flatnonzero(mask) + start).tolist()
