"""Fingerprint of what the normalizer compiles random ``where`` trees to, or how it refuses.

Two thousand seeded random trees over two attribute names and one ``col(k)`` position are
normalized, and each row records ``repr(normalize(tree))`` — or, where the tree has no
conjunctive form, the type and message of the exception.  Leaves use every operator
(``==``, ``<``, ``<=``, ``>``, ``>=``, ``between``) over operands that meet at the edges
where interval algebra goes wrong: ``0``, ``0.0`` and ``-0.0`` compare equal but render
differently, ``5`` and ``5.0`` likewise, and ``nan`` compares false with everything, so
empty, open and touching intervals all occur.  Inner nodes are ``&``, ``|`` and ``~``.  The
digest of all rows is pinned, so a change to how the normalizer negates, merges, intersects
or orders clauses that moves one operand, strictness flag or message fails here.
"""

from __future__ import annotations

import hashlib
import random

from repro.api import col
from repro.api.logical import normalize

#: Digest of every row below, captured while each operator was spelled out in if-chains.
EXPECTED_DIGEST = "e3688dc02f4f0dbd"
EXPECTED_ROWS = 2000

_ATTRIBUTES = ("a", "b", 2)
_VALUES = (0, 0.0, -0.0, 5, 5.0, float("nan"), -3, 9)
_LEAVES = (
    lambda column, x, y: column == x,
    lambda column, x, y: column < x,
    lambda column, x, y: column <= x,
    lambda column, x, y: column > x,
    lambda column, x, y: column >= x,
    lambda column, x, y: column.between(x, y),
)


def _tree(rng: random.Random, depth: int):
    """A random tree: a leaf, or ``&`` / ``|`` of two subtrees, or ``~`` of one."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(_LEAVES)
        return leaf(col(rng.choice(_ATTRIBUTES)), rng.choice(_VALUES), rng.choice(_VALUES))
    shape = rng.randrange(3)
    if shape == 0:
        return _tree(rng, depth - 1) & _tree(rng, depth - 1)
    if shape == 1:
        return _tree(rng, depth - 1) | _tree(rng, depth - 1)
    return ~_tree(rng, depth - 1)


def _row(tree) -> tuple:
    try:
        return ("ok", repr(normalize(tree)))
    except Exception as error:  # noqa: BLE001 - the refusal is the row
        return (type(error).__name__, str(error))


def _fingerprint() -> list:
    rng = random.Random(35)
    return [_row(_tree(rng, 3)) for _ in range(EXPECTED_ROWS)]


def test_trees_cover_every_outcome():
    kinds = {row[0] for row in _fingerprint()}
    assert kinds == {"ok", "UnsupportedExpressionError"}


def test_normalize_fingerprint_is_unchanged():
    rows = _fingerprint()
    assert len(rows) == EXPECTED_ROWS
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == EXPECTED_DIGEST
