"""Micro-benchmark: row-at-a-time vs. vectorized (column-at-a-time) predicate evaluation.

The engine refactor replaced the readers' row-at-a-time post-filter loops with
:func:`repro.engine.executor.vectorized_filter`, which evaluates each predicate clause over a
whole column slice at once.  This benchmark pits the two implementations against each other on
the same block and predicate so the speedup (and any regression) is visible in CI.  Every test
also asserts result equality, so the benchmark doubles as an equivalence check, and
:func:`test_kernels_and_pruning_beat_row_at_a_time` holds the wall-clock floor: kernels alone,
and kernels over zone-map-pruned windows, must stay at least 2x faster than the row loop.
"""

from __future__ import annotations

import random
import timeit

import pytest

from repro.engine import kernels
from repro.engine.executor import vectorized_filter
from repro.hail.hail_block import HailBlock
from repro.hail.index import IndexLookup
from repro.hail.predicate import Comparison, Operator, Predicate
from repro.layouts import FieldType, Schema

_SCHEMA = Schema.of(
    ("key", FieldType.INT),
    ("category", FieldType.INT),
    ("value", FieldType.INT),
    name="engine-bench",
)
_NUM_ROWS = 20_000

#: Conjunction with ~25% x ~50% selectivity: enough survivors that both loops do real work.
_PREDICATE = Predicate(
    [
        Comparison("category", Operator.BETWEEN, (0, 3)),
        Comparison("value", Operator.GE, (500,)),
    ]
)


def _records() -> list[tuple[int, int, int]]:
    rng = random.Random(42)
    return [(i, rng.randrange(16), rng.randrange(1000)) for i in range(_NUM_ROWS)]


@pytest.fixture(scope="module")
def block() -> HailBlock:
    return HailBlock.build(_SCHEMA, _records(), sort_attribute="key", partition_size=1024)


@pytest.fixture(scope="module")
def full_lookup(block) -> IndexLookup:
    return IndexLookup(0, block._num_partitions() - 1, 0, block.num_records)


def _row_at_a_time(block: HailBlock, predicate: Predicate, lookup: IndexLookup) -> list[int]:
    """The pre-engine post-filter loop (kept here as the benchmark baseline)."""
    schema = block.schema
    clause_indexes = [(clause, clause.attribute_index(schema)) for clause in predicate.clauses]
    matching: list[int] = []
    for row in range(lookup.start_row, lookup.end_row):
        for clause, column_index in clause_indexes:
            if not clause.matches(block.pax.columns[column_index][row]):
                break
        else:
            matching.append(row)
    return matching


def test_row_at_a_time_filter(benchmark, block, full_lookup):
    result = benchmark(_row_at_a_time, block, _PREDICATE, full_lookup)
    assert result == vectorized_filter(block.pax, _PREDICATE, block.schema, full_lookup)
    benchmark.extra_info["rows"] = _NUM_ROWS
    benchmark.extra_info["matches"] = len(result)


def test_vectorized_filter(benchmark, block, full_lookup):
    result = benchmark(
        vectorized_filter, block.pax, _PREDICATE, block.schema, full_lookup
    )
    assert result == _row_at_a_time(block, _PREDICATE, full_lookup)
    benchmark.extra_info["rows"] = _NUM_ROWS
    benchmark.extra_info["matches"] = len(result)


def test_kernels_and_pruning_beat_row_at_a_time(block, full_lookup):
    """The wall-clock floor, on whatever kernel backend is active: the kernel alone on the
    unclustered block, and partition pruning + the kernel on a ``category``-clustered copy,
    answer exactly like the row loop over the full window and at least 2x faster."""
    clustered = HailBlock.build(
        _SCHEMA, _records(), sort_attribute="category", partition_size=1024
    )

    def kernel_alone() -> list[int]:
        return vectorized_filter(block.pax, _PREDICATE, _SCHEMA, full_lookup)

    def pruned_then_kernel() -> list[int]:
        windows = clustered.zone_map.prune_ranges(
            _PREDICATE, _SCHEMA, 0, clustered.num_records
        )
        return kernels.filter_ranges(clustered.pax, _PREDICATE, _SCHEMA, windows)

    for candidate, scanned in ((kernel_alone, block), (pruned_then_kernel, clustered)):
        assert candidate() == _row_at_a_time(scanned, _PREDICATE, full_lookup)
        row_loop_s = min(
            timeit.repeat(
                lambda: _row_at_a_time(scanned, _PREDICATE, full_lookup), number=1, repeat=3
            )
        )
        kernel_s = min(timeit.repeat(candidate, number=1, repeat=3))
        assert row_loop_s >= 2.0 * kernel_s, candidate.__name__
