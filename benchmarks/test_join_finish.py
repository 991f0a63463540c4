"""Micro-benchmark: the join's ordered emission vs. sorting the materialised join.

The join's finish step used to build every joined row and then ``sorted(rows, key=repr)`` the
lot.  Now its collector (:class:`repro.engine.operators.join._JoinedGroups`) keeps the matched
left rows in one flat list, beside each its key's right rests as one ``repr``-sorted tuple, and
emits once: one ``repr`` per left row, one sort of the row indices by that text, one
``row + rest`` comprehension (docs/performance.md § "Join: groups, not rows").  ``repr`` runs
once per input row instead of once per joined row, and nothing the size of the output is ever
sorted.  This file pits the two against each other on plain lists (no deployment), asserts
they return the very same list, and holds the wall-clock floor next to the kernel floor of
``test_engine_filter.py``.

Both shapes produce 16 000 joined ``(key, left value, right value)`` rows.  Measured with
``timeit`` (best of 5, collector off as ``timeit`` leaves it; the median of three runs) on an
Intel Xeon under CPython 3.11:

====================================  =================  ================  =======
shape                                 sort the output    ordered emission  ratio
====================================  =================  ================  =======
8 000 x 2 000 rows, 1 000 keys (8x2)  10.2 ms            8.2 ms            1.25x
2 000 x 2 000 rows,   250 keys (8x8)   9.8 ms            3.6 ms            2.72x
====================================  =================  ================  =======

The first shape is the ``operators`` workload's join: with two right rows per key the output
is barely larger than the inputs, so the saved ``repr`` calls and the unsorted output buy
little and the floor there is only "not slower"; the emission's cost follows the inputs and
the sort's the output, which is what the second shape pins.  (The workload's gain comes from
the containers the finish step no longer builds; see the performance guide.)
"""

from __future__ import annotations

import random
import timeit
from types import SimpleNamespace

import pytest

from repro.engine.operators.join import _JoinedGroups, _merge_join

#: ``_merge_join`` prices the merge on the first alive node; with none it only joins.
_NO_CLUSTER = SimpleNamespace(cluster=SimpleNamespace(alive_nodes=[]))
_JOINED_ROWS = 16_000


def _sides(keys: int, left_per_key: int, right_per_key: int) -> tuple[list[tuple], list[tuple]]:
    """Shuffled ``(key, value)`` rows, a fixed number per key on each side."""
    rng = random.Random(42)
    left = [(i % keys, rng.randrange(1_000_000)) for i in range(keys * left_per_key)]
    right = [(i % keys, rng.randrange(1_000_000)) for i in range(keys * right_per_key)]
    rng.shuffle(left)
    rng.shuffle(right)
    return left, right


def _keyed(left: list[tuple], right: list[tuple]) -> tuple[list[tuple], list[tuple]]:
    """The two sides as the join's decorated scans emit them: ``(key, row)``, ``(key, rest)``."""
    return [(row[0], row) for row in left], [(row[0], row[1:]) for row in right]


@pytest.fixture(scope="module")
def sides() -> tuple[list[tuple], list[tuple]]:
    """8 000 x 2 000 rows on 1 000 keys: the shape of the ``operators`` workload's join."""
    return _sides(1_000, 8, 2)


@pytest.fixture(scope="module")
def keyed(sides) -> tuple[list[tuple], list[tuple]]:
    return _keyed(*sides)


def _sorted_nested_loop(left_rows: list[tuple], right_rows: list[tuple]) -> list[tuple]:
    """The finish step before it worked on key groups (kept here as the benchmark baseline):
    build on one side, probe with the other, then sort the materialised join by ``repr``."""
    by_key: dict = {}
    for row in left_rows:
        by_key.setdefault(row[0], []).append(row)
    joined: list[tuple] = []
    for row in right_rows:
        for left in by_key.get(row[0], ()):
            joined.append(left + row[1:])
    return sorted(joined, key=repr)


def _ordered_emission(left_pairs: list[tuple], right_pairs: list[tuple]) -> list[tuple]:
    """The merge strategy's finish: collect both sides' keyed pairs, emit once in order."""
    joined = _JoinedGroups()
    _merge_join(_NO_CLUSTER, left_pairs, right_pairs, joined)
    return joined.rows()


def test_sorted_nested_loop(benchmark, sides, keyed):
    result = benchmark(_sorted_nested_loop, *sides)
    assert result == _ordered_emission(*keyed)
    benchmark.extra_info["joined_rows"] = len(result)


def test_ordered_emission(benchmark, sides, keyed):
    result = benchmark(_ordered_emission, *keyed)
    assert result == _sorted_nested_loop(*sides)
    benchmark.extra_info["joined_rows"] = len(result)


@pytest.mark.parametrize(
    "keys, left_per_key, right_per_key, floor",
    [(1_000, 8, 2, 1.0), (250, 8, 8, 2.0)],
    ids=["8x2-not-slower", "8x8-twice-as-fast"],
)
def test_the_ordered_emission_beats_sorting_the_materialised_join(
    keys, left_per_key, right_per_key, floor
):
    """The wall-clock floor: exactly the same list, ``floor`` times faster (see the table)."""
    sides = _sides(keys, left_per_key, right_per_key)
    keyed = _keyed(*sides)
    emitted = _ordered_emission(*keyed)
    assert emitted == _sorted_nested_loop(*sides) and len(emitted) == _JOINED_ROWS
    # Round by round, so a change of the machine's speed mid-test hits both alike.
    rounds = [
        (
            timeit.timeit(lambda: _sorted_nested_loop(*sides), number=1),
            timeit.timeit(lambda: _ordered_emission(*keyed), number=1),
        )
        for _ in range(5)
    ]
    sorting_s, emitting_s = (min(times) for times in zip(*rounds))
    assert sorting_s >= floor * emitting_s
