"""HAIL blocks: the physical payload of a HAIL replica.

A HAIL block (Figure 1, right-hand side) consists of

- *Block Metadata*: the schema and record counts collected by the HAIL client,
- the PAX data itself, sorted by this replica's sort attribute,
- *Index Metadata* plus the sparse clustered index created by the datanode,
- the bad records that did not match the schema, kept in a special part of the block,
- for variable-size attributes, per-partition offset lists enabling tuple reconstruction
  without scanning whole columns (Section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.hail.index import HailIndex, IndexLookup
from repro.hail.predicate import Predicate
from repro.hail.replica_info import HailBlockReplicaInfo
from repro.hdfs.block import BlockPayload
from repro.layouts.pax import PaxBlock
from repro.layouts.schema import Schema
from repro.layouts.zonemap import ZoneMap, ZoneRanges, block_zone_ranges

#: Fixed functional size of the block-metadata header (schema, counters, flags).
_BLOCK_METADATA_BYTES = 256
#: Fixed functional size of the index-metadata header.
_INDEX_METADATA_BYTES = 64


class HailBlock(BlockPayload):
    """One replica's PAX data plus (optionally) a clustered index on its sort attribute."""

    def __init__(
        self,
        pax: PaxBlock,
        sort_attribute: Optional[str],
        index: Optional[HailIndex],
        bad_lines: Optional[Sequence[str]] = None,
        partition_size: int = 1024,
        logical_partition_size: Optional[int] = None,
    ) -> None:
        if (sort_attribute is None) != (index is None):
            raise ValueError("sort_attribute and index must be provided together (or neither)")
        self.pax = pax
        self.sort_attribute = sort_attribute
        self.index = index
        self.bad_lines: list[str] = list(bad_lines or [])
        self._bad_records_bytes = sum(len(line.encode("utf-8")) + 1 for line in self.bad_lines)
        self.partition_size = partition_size
        #: Partition size assumed for the *logical* (paper-scale) index; the cost model sizes
        #: index reads with it, while ``partition_size`` governs the functional miniature index.
        self.logical_partition_size = (
            logical_partition_size if logical_partition_size is not None else partition_size
        )
        #: False when the ablation "no PAX conversion" stores the block row-wise: the data is
        #: still sorted and indexed, but a scan can no longer prune unneeded columns.
        self.pax_layout: bool = True
        # Built on first read (see the ``variable_offsets`` property): the offsets depend on
        # the row order, but nothing on the upload or query path reads more than their count —
        # one 4-byte offset per logical partition of every variable-size column.
        self._variable_offsets: Optional[dict[str, list[int]]] = None
        variable_columns = sum(not f.ftype.is_fixed for f in pax.schema.fields)
        partitions = len(range(0, pax.num_rows, self.logical_partition_size))
        self._offsets_bytes = 4 * variable_columns * partitions
        # Lazily built per-partition zone map (see the ``zone_map`` property); kept as an
        # attribute so tests can inject a stale synopsis and assert the fail-closed path.
        self._zone_map: Optional[ZoneMap] = None

    # ------------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        schema: Schema,
        records: Sequence[tuple],
        sort_attribute: Optional[str],
        partition_size: int = 1024,
        bad_lines: Optional[Sequence[str]] = None,
        logical_partition_size: Optional[int] = None,
    ) -> "HailBlock":
        """Pivot ``records`` to PAX, sort by ``sort_attribute`` (if any) and build the index.

        With ``sort_attribute=None`` this is the HAIL client's conversion (Section 3.1): the
        upload pipeline calls it once per block and derives every replica with
        :meth:`resorted`, so the rows are pivoted and measured once — here, one walk per
        variable-size column, whose sizes every reorder of the block then shares.
        """
        pax = PaxBlock.from_records(schema, records)
        pax.size_bytes()  # the row set's one measurement, filling the table reorders share
        return cls._sorted_and_indexed(
            pax,
            sort_attribute,
            partition_size,
            bad_lines=bad_lines,
            logical_partition_size=logical_partition_size,
        )

    def resorted(self, attribute: Optional[str]) -> "HailBlock":
        """A new payload over the same rows, sorted and indexed on ``attribute``.

        This is the datanode-side work of the HAIL upload pipeline (Section 3.2, step 7): sort
        in main memory, reorganise all columns, create the sparse clustered index.  ``None``
        strips the index and keeps the current row order and ``PaxBlock`` (an unsorted upload
        position, the eviction downgrade).  Bad records, both partition sizes and the physical
        layout carry over, so uploaded replicas, adaptive builds, balancer rebuilds and
        downgrades keep the source block's shape — under the "no PAX conversion" ablation a
        rebuilt replica stays row-wise.
        """
        block = self._sorted_and_indexed(
            self.pax,
            attribute,
            self.partition_size,
            bad_lines=self.bad_lines,
            logical_partition_size=self.logical_partition_size,
        )
        block.pax_layout = self.pax_layout
        return block

    @classmethod
    def _sorted_and_indexed(
        cls, pax: PaxBlock, sort_attribute: Optional[str], partition_size: int, **block_args
    ) -> "HailBlock":
        """The one sort-and-index step behind :meth:`build` and :meth:`resorted`: the index is
        created over the sorted column and its permutation reorders all other minipages."""
        index = None
        if sort_attribute is not None:
            index, permutation = HailIndex.from_unsorted(
                sort_attribute, pax.column(sort_attribute), partition_size=partition_size
            )
            pax = pax.reorder(permutation)
        return cls(pax, sort_attribute, index, partition_size=partition_size, **block_args)

    def replica_info(self, datanode_id: int, **overrides: Any) -> HailBlockReplicaInfo:
        """The ``Dir_rep`` entry describing this payload as stored on ``datanode_id``.

        Sort/indexed attribute, sizes, record count, layout and the block-level zone synopsis
        all come from the payload itself, so a registered entry cannot disagree with the
        replica it describes; ``overrides`` carries what the payload cannot know (``origin``,
        ``index_type``, ``displaced_plain_replica``) or an explicit ``zone_ranges=None`` for
        systems that register no synopsis.
        """
        if "zone_ranges" not in overrides:
            overrides["zone_ranges"] = self.zone_ranges()
        return HailBlockReplicaInfo(
            datanode_id=datanode_id,
            sort_attribute=self.sort_attribute,
            indexed_attribute=self.sort_attribute,
            index_size_bytes=self.index_size_bytes(),
            block_size_bytes=self.size_bytes(),
            num_records=self.num_records,
            pax_layout=self.pax_layout,
            **overrides,
        )

    # ------------------------------------------------------------------ BlockPayload interface
    @property
    def schema(self) -> Schema:
        """Schema of the block (from the block metadata)."""
        return self.pax.schema

    @property
    def num_records(self) -> int:
        """Number of well-formed records stored in the block."""
        return self.pax.num_rows

    def data_size_bytes(self) -> int:
        """Binary size of the PAX minipages only."""
        return self.pax.size_bytes()

    def index_size_bytes(self) -> int:
        """Size of the clustered index directory (0 when the replica is unindexed)."""
        return self.index.size_bytes() if self.index is not None else 0

    def bad_records_size_bytes(self) -> int:
        """Size of the bad-record section."""
        return self._bad_records_bytes

    def size_bytes(self) -> int:
        """Physical size of the replica's data file (the offset lists counted, not built)."""
        return (
            _BLOCK_METADATA_BYTES
            + _INDEX_METADATA_BYTES
            + self.data_size_bytes()
            + self.index_size_bytes()
            + self.bad_records_size_bytes()
            + self._offsets_bytes
        )

    def describe(self) -> dict:
        layout = "pax"
        if self.index is not None:
            layout = f"pax+index({self.sort_attribute})"
        return {
            "layout": layout,
            "records": self.num_records,
            "bad_records": len(self.bad_lines),
            "bytes": self.size_bytes(),
            "index": self.index.describe() if self.index is not None else None,
        }

    # ------------------------------------------------------------------ zone maps
    @property
    def zone_map(self) -> ZoneMap:
        """The per-partition min-max synopsis of this payload, filled per attribute on use.

        Because it is derived from the payload itself, the synopsis is consistent with the
        rows by construction; executors still gate every use behind
        ``zone_map.matches(num_records)`` so an injected or stale synopsis fails closed to a
        full scan instead of skipping rows.
        """
        if self._zone_map is None:
            self._zone_map = ZoneMap.build(self.pax, self.partition_size)
        return self._zone_map

    def zone_ranges(self) -> ZoneRanges:
        """Block-level min/max triples for ``Dir_rep`` registration (no partitions): computed
        once per row set and shared by every replica sorted from it, FLOAT/DOUBLE columns
        excepted (:func:`~repro.layouts.zonemap.block_zone_ranges`)."""
        return block_zone_ranges(self.pax)

    # ------------------------------------------------------------------ query support
    def candidate_rows(self, predicate: Predicate) -> tuple[IndexLookup, bool]:
        """Row range that must be read to answer ``predicate``.

        Returns ``(lookup, used_index)``: when the predicate has a clause on this replica's
        indexed attribute, the clustered index narrows the range to the qualifying partitions;
        otherwise every row is a candidate (full scan of the block).
        """
        if self.index is not None and self.sort_attribute is not None:
            clause = predicate.clause_for(self.sort_attribute, self.schema)
            if clause is not None:
                low, high = clause.value_range()
                return self.index.lookup_range(low, high), True
        return self.whole_block_lookup(), False

    def whole_block_lookup(self) -> IndexLookup:
        """The :class:`IndexLookup` spanning every partition and every row (a block scan)."""
        return IndexLookup(
            first_partition=0,
            last_partition=max(0, -(-self.num_records // self.partition_size) - 1),
            start_row=0,
            end_row=self.num_records,
        )

    # ------------------------------------------------------------------ variable-size access
    @property
    def variable_offsets(self) -> dict[str, list[int]]:
        """Per variable-size column, the byte offset of every logical partition's first value.

        One offset per *logical* index partition (Section 3.5): the lists stay tiny relative
        to the block, which matters when miniature functional blocks stand in for 64 MB
        logical blocks.  They depend on the row order, so each replica walks its own columns —
        on the first read, not at construction.

        Census keep list (``tests/test_census.py``): paper Section 3.5; tests hold the size
        accounting to it.
        """
        if self._variable_offsets is None:
            self._variable_offsets = {
                f.name: self.pax.variable_offsets(f.name, self.logical_partition_size)
                for f in self.schema.fields
                if not f.ftype.is_fixed
            }
        return self._variable_offsets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HailBlock(records={self.num_records}, sort={self.sort_attribute!r}, "
            f"indexed={self.index is not None})"
        )
