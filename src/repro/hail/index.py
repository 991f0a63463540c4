"""The HAIL sparse clustered index (Figure 2 of the paper).

The index is a single-level directory over a column that is already sorted and stored
contiguously on disk: the column is divided into partitions of ``partition_size`` values
(1,024 in the paper) and the directory keeps, for every partition, its first key.  Child
pointers are implicit — all leaves are contiguous, so the offset of partition ``k`` is simply
``k * partition_size * value_size``.  A range lookup binary-searches the directory for the first
and the last qualifying partition in main memory, reads exactly those partitions from disk, and
post-filters them (steps 1–3 in Figure 2).

The paper argues a single-level directory is optimal for block sizes below ~5 GB because a
second level would add another disk seek; the same arithmetic is reproduced in
:func:`multilevel_pays_off`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.layouts.pax import gatherer

#: Bytes per directory entry: one key (up to 4–8 B for fixed types) plus bookkeeping.
_BYTES_PER_ENTRY = 8


@dataclass(frozen=True)
class IndexLookup:
    """Result of a range lookup: the candidate row range covering qualifying partitions."""

    first_partition: int
    last_partition: int
    start_row: int
    end_row: int

    @property
    def num_rows(self) -> int:
        """Number of candidate rows that must be read and post-filtered."""
        return max(0, self.end_row - self.start_row)

    @property
    def num_partitions(self) -> int:
        """Number of leaf partitions touched."""
        if self.num_rows == 0:
            return 0
        return self.last_partition - self.first_partition + 1

    @property
    def is_empty(self) -> bool:
        """True when no partition can contain qualifying rows."""
        return self.num_rows == 0


class HailIndex:
    """Sparse clustered index over one sorted column of a HAIL block."""

    def __init__(self, attribute: str, sorted_values: Sequence[Any], partition_size: int = 1024) -> None:
        if partition_size < 1:
            raise ValueError("partition_size must be at least 1")
        self.attribute = attribute
        self.partition_size = partition_size
        self.num_values = len(sorted_values)
        #: First key of every partition (the single large root directory of Figure 2), as a
        #: tuple like the minipage it indexes: at partition size 1 it holds one key per row.
        self.partition_keys: tuple[Any, ...] = tuple(sorted_values[::partition_size])

    # ------------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        attribute: str,
        sorted_values: Sequence[Any],
        partition_size: int = 1024,
        assume_sorted: bool = False,
    ) -> "HailIndex":
        """Build the index over an already sorted column.

        ``assume_sorted=True`` skips the sortedness validation entirely — the fast path used by
        the upload pipeline, which always sorts the column immediately before indexing it.
        Validation itself pairs each value with its successor (``zip(values, values[1:])``),
        letting the interpreter run one fused comparison loop instead of indexing the sequence
        twice per position.

        Raises
        ------
        ValueError
            If the column is not sorted (the clustered index requires it).
        """
        if not assume_sorted:
            for i, (value, successor) in enumerate(zip(sorted_values, sorted_values[1:])):
                if value > successor:
                    raise ValueError(
                        f"column {attribute!r} is not sorted at position {i}; "
                        "a clustered index requires sorted data"
                    )
        return cls(attribute, sorted_values, partition_size)

    @classmethod
    def from_unsorted(
        cls, attribute: str, values: Sequence[Any], partition_size: int = 1024
    ) -> tuple["HailIndex", list[int]]:
        """Sort an unsorted column and index it in one step (``HailBlock.build``'s core).

        Both the upload pipeline and the adaptive (lazy) build funnel through this: upload
        starts from the client's arrival order, an adaptive build from whatever row order the
        scan encountered.  Returns ``(index, permutation)`` where ``permutation[i]`` is the
        original row id of sorted position ``i`` — the caller reorders the block's other
        columns with it (``PaxBlock.reorder``) so the clustered property holds for the whole
        replica.  The directory only needs each partition's *first* key, so the keys are
        sampled through the permutation directly and no sorted copy of the column is
        materialized (the caller's ``reorder`` is the one pass that produces sorted data).
        """
        if partition_size < 1:
            raise ValueError("partition_size must be at least 1")
        from repro.hail.sortindex import sort_permutation

        permutation = sort_permutation(values)
        index = cls(attribute, (), partition_size)
        index.num_values = len(values)
        index.partition_keys = gatherer(permutation[::partition_size])(values)
        return index, permutation

    # ------------------------------------------------------------------ lookups
    @property
    def num_partitions(self) -> int:
        """Number of leaf partitions (directory entries)."""
        return len(self.partition_keys)

    def size_bytes(self) -> int:
        """Functional size of the index directory in bytes."""
        return _BYTES_PER_ENTRY * len(self.partition_keys)

    def lookup_range(self, low: Optional[Any], high: Optional[Any]) -> IndexLookup:
        """Partitions that may contain values in ``[low, high]`` (``None`` bounds are open).

        Because the data is sorted and the directory only stores each partition's first key,
        the first candidate partition is the one *preceding* the first key greater than ``low``,
        and the last candidate partition is the one preceding the first key greater than
        ``high``.
        """
        if self.num_values == 0:
            return IndexLookup(0, -1, 0, 0)
        if low is not None and high is not None and low > high:
            return IndexLookup(0, -1, 0, 0)

        if low is None:
            first = 0
        else:
            # The first candidate partition is the one *preceding* the first partition whose
            # first key exceeds-or-equals `low`: earlier partitions end strictly below `low`,
            # but that preceding partition may still contain values equal to `low` (duplicates
            # can span partition boundaries).
            first = bisect.bisect_left(self.partition_keys, low) - 1
            first = max(first, 0)
        if high is None:
            last = self.num_partitions - 1
        else:
            last = bisect.bisect_right(self.partition_keys, high) - 1
            if last < 0:
                # Every partition starts above `high`; only the first partition could contain
                # smaller values, and only if `low` is open or below its first key.
                return IndexLookup(0, -1, 0, 0)

        if first > last:
            return IndexLookup(0, -1, 0, 0)
        start_row = first * self.partition_size
        end_row = min((last + 1) * self.partition_size, self.num_values)
        return IndexLookup(first, last, start_row, end_row)

    def lookup_equal(self, value: Any) -> IndexLookup:
        """Partitions that may contain ``value`` (an equality probe)."""
        return self.lookup_range(value, value)

    def describe(self) -> dict:
        """Index metadata stored in the block header and in the namenode's Dir_rep."""
        return {
            "type": "sparse_clustered",
            "attribute": self.attribute,
            "partition_size": self.partition_size,
            "partitions": self.num_partitions,
            "values": self.num_values,
            "size_bytes": self.size_bytes(),
        }


def logical_index_size_bytes(num_logical_values: float, partition_size: int = 1024) -> float:
    """Index directory size for a block with ``num_logical_values`` rows (paper-scale arithmetic)."""
    if num_logical_values <= 0:
        return 0.0
    partitions = -(-num_logical_values // partition_size)
    return _BYTES_PER_ENTRY * partitions


def multilevel_pays_off(
    block_size_bytes: float,
    num_attributes: int = 10,
    page_size_bytes: float = 4096.0,
    transfer_mb_s: float = 100.0,
    seek_ms: float = 5.0,
) -> bool:
    """Would a multi-level index beat the single-level directory for this block size?

    Reproduces the back-of-the-envelope argument of Section 3.5 (for its example of ten
    fixed-size attributes): a second index level saves directory-read time but costs an extra
    seek, so it only pays off once the single-level directory itself takes longer to read than
    one seek — which happens for HDFS blocks of roughly 5 GB and beyond.
    """
    bytes_per_attribute = block_size_bytes / max(num_attributes, 1)
    pages = bytes_per_attribute / page_size_bytes
    directory_bytes = pages * 4.0
    directory_read_s = directory_bytes / (transfer_mb_s * 1024.0 * 1024.0)
    return directory_read_s > (seek_ms / 1000.0)
