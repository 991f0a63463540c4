"""Tests for the sparse clustered index (Figure 2 of the paper)."""

import pytest

from repro.hail.index import HailIndex, logical_index_size_bytes, multilevel_pays_off
from repro.hail.sortindex import sort_permutation


def _brute_force(values, low, high):
    return [
        i
        for i, v in enumerate(values)
        if (low is None or v >= low) and (high is None or v <= high)
    ]


@pytest.fixture
def sorted_values():
    return sorted([v * 7 % 1000 for v in range(500)])


def test_build_rejects_unsorted_column():
    with pytest.raises(ValueError):
        HailIndex.build("a", [3, 1, 2], partition_size=2)


def test_build_rejects_bad_partition_size():
    with pytest.raises(ValueError):
        HailIndex("a", [1, 2, 3], partition_size=0)


def test_partition_keys_are_first_values(sorted_values):
    index = HailIndex.build("a", sorted_values, partition_size=64)
    assert index.num_partitions == -(-len(sorted_values) // 64)
    assert index.partition_keys == tuple(sorted_values[i] for i in range(0, len(sorted_values), 64))
    assert index.size_bytes() == 8 * index.num_partitions


def test_range_lookup_contains_all_qualifying_rows(sorted_values):
    index = HailIndex.build("a", sorted_values, partition_size=32)
    for low, high in [(100, 300), (0, 0), (None, 50), (900, None), (None, None), (-5, -1)]:
        lookup = index.lookup_range(low, high)
        expected = _brute_force(sorted_values, low, high)
        candidate = set(range(lookup.start_row, lookup.end_row))
        assert set(expected) <= candidate
        # The candidate range is tight: at most one extra partition on each side.
        if expected:
            assert lookup.start_row >= expected[0] - 32
            assert lookup.end_row <= expected[-1] + 32 + 1


def test_range_lookup_empty_cases(sorted_values):
    index = HailIndex.build("a", sorted_values, partition_size=32)
    assert index.lookup_range(10, 5).is_empty
    below_all = index.lookup_range(None, min(sorted_values) - 1)
    assert below_all.is_empty
    assert index.lookup_range(max(sorted_values) + 1, None).num_rows <= 32


def test_point_lookup_probe(sorted_values):
    index = HailIndex.build("a", sorted_values, partition_size=16)
    target = sorted_values[123]
    lookup = index.lookup_range(target, target)
    rows = range(lookup.start_row, lookup.end_row)
    assert all(sorted_values[r] == target for r in rows if sorted_values[r] == target)
    assert any(sorted_values[r] == target for r in rows)


def test_empty_index():
    index = HailIndex.build("a", [], partition_size=8)
    assert index.num_partitions == 0
    assert index.lookup_range(1, 2).is_empty
    assert index.size_bytes() == 0


def test_lookup_partition_counts(sorted_values):
    index = HailIndex.build("a", sorted_values, partition_size=50)
    lookup = index.lookup_range(None, None)
    assert lookup.num_partitions == index.num_partitions
    assert lookup.num_rows == len(sorted_values)


def test_describe_metadata(sorted_values):
    info = HailIndex.build("visitDate", sorted_values, partition_size=128).describe()
    assert info["type"] == "sparse_clustered"
    assert info["attribute"] == "visitDate"
    assert info["partition_size"] == 128


def test_logical_index_size_follows_paper_arithmetic():
    # A 256 MB block with 6.7M rows and 1,024-row partitions has ~6.5K entries (tens of KB).
    size = logical_index_size_bytes(6_700_000, 1024)
    assert 8 * 6500 < size < 8 * 6700
    assert logical_index_size_bytes(0) == 0.0


def test_multilevel_index_only_pays_off_for_huge_blocks():
    # Section 3.5: only blocks of roughly 5 GB and beyond would justify a multi-level index.
    assert not multilevel_pays_off(256 * 1024 * 1024)
    assert not multilevel_pays_off(1024 * 1024 * 1024)
    assert multilevel_pays_off(8 * 1024 * 1024 * 1024)


# --------------------------------------------------------------------------- sort index
def test_sort_permutation_sorts_and_is_stable():
    values = [5, 1, 3, 1, 2]
    permutation = sort_permutation(values)
    assert [values[i] for i in permutation] == sorted(values)
    # Stability: the two equal values keep their original relative order.
    first_one, second_one = [i for i in permutation if values[i] == 1]
    assert first_one < second_one


def test_sort_permutation_handles_none_first():
    values = [3, None, 1]
    permutation = sort_permutation(values)
    assert [values[i] for i in permutation] == [None, 1, 3]

