"""Sort-index computation: the permutation that sorts a block by its sort key.

Each datanode sorts the data of an incoming block by a different attribute (Section 3.2, step 7)
and uses the resulting permutation to reorganise *all* columns of the PAX block so that rows stay
aligned (Section 3.5, "we build a sort index to reorganize all other columns").
"""

from __future__ import annotations

from typing import Any, Sequence


def sort_permutation(values: Sequence[Any]) -> list[int]:
    """Indices that sort ``values`` ascending; the sort is stable.

    Values must be mutually comparable (ints, floats, strings, dates — whatever the sort-key
    column holds).  ``None`` values sort first so that blocks with missing keys still sort
    deterministically.

    Without a ``None`` the key is the column's own C-level ``__getitem__``: the keyed form
    compares ``(True, a) < (True, b)``, which reduces to ``a < b`` (ties, ``-0.0``/``0.0`` and
    NaN included), so both stable sorts return the same permutation.
    """
    if None not in values:
        return sorted(range(len(values)), key=values.__getitem__)

    def key(position: int):
        value = values[position]
        return (value is not None, value)

    return sorted(range(len(values)), key=key)

