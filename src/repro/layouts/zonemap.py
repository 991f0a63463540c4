"""Zone maps: per-block and per-partition min-max synopses for data skipping.

A zone map records, for every attribute of a PAX block, the minimum and maximum value stored
— once at block granularity and once per index partition.  A selection clause whose value
range is provably disjoint from a zone cannot match any row inside it, so

- the **planner** consults the block-level ranges registered in ``Dir_rep``
  (``HailBlockReplicaInfo.zone_ranges``) to skip whole blocks before any payload is opened
  (the ``ZONE_MAP_SKIP`` access path), and
- the **executor** consults the payload's own per-partition zone map to prune the candidate
  window down to the partitions that may match.

Correctness is fail-closed throughout: a zone map can only ever *widen* the set of rows read,
never narrow the result.  Any doubt — unknown attribute, uncomparable operand types, a
synopsis whose row count disagrees with the payload — disables skipping for that block and
the scan proceeds in full.  The executor additionally re-verifies every planner-ordered skip
against the payload's own (freshly derivable) synopsis, so a stale ``Dir_rep`` entry degrades
to a full scan rather than a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:
    from repro.hail.predicate import Predicate
    from repro.layouts.pax import PaxBlock
    from repro.layouts.schema import Schema

#: ``Dir_rep`` zone ranges: one ``(attribute, min, max)`` triple per attribute with data.
ZoneRanges = tuple[tuple[str, Any, Any], ...]


def block_zone_ranges(pax: "PaxBlock") -> ZoneRanges:
    """Block-level min/max per attribute, in the ``Dir_rep`` triple form.

    This is the cheap synopsis registered with the namenode at replica-creation time (upload,
    adaptive build commit, eviction downgrade, balancer re-replication): two ``min``/``max``
    passes per column, no per-partition breakdown.  Empty blocks yield an empty tuple.
    """
    if pax.num_rows == 0:
        return ()
    return tuple(
        (field.name, min(column), max(column))
        for field, column in zip(pax.schema.fields, pax.columns)
    )


def ranges_disjoint(
    clause_low: Any, clause_high: Any, zone_low: Any, zone_high: Any
) -> bool:
    """True when a clause value range provably cannot intersect a zone's ``[low, high]``.

    Both ranges are treated as closed: ``Comparison.value_range`` does not distinguish strict
    from inclusive bounds, so a clause bound exactly on the zone edge is conservatively
    treated as a possible match (never skipped).  Uncomparable types fail closed to "may
    intersect".
    """
    try:
        if clause_high is not None and clause_high < zone_low:
            return True
        if clause_low is not None and clause_low > zone_high:
            return True
    except TypeError:
        return False
    return False


def may_match_ranges(
    ranges: Optional[ZoneRanges], predicate: Optional["Predicate"], schema: "Schema"
) -> bool:
    """Whether a block with ``Dir_rep`` zone ``ranges`` may hold rows matching ``predicate``.

    ``True`` (may match → must scan) is the fail-closed default: missing synopsis, missing
    predicate, or an attribute the synopsis does not cover all answer ``True``.  Only a
    clause whose value range is provably disjoint from the recorded zone justifies a skip.
    """
    if not ranges or predicate is None:
        return True
    zones = {name: (low, high) for name, low, high in ranges}
    for clause in predicate.clauses:
        try:
            name = schema.fields[clause.attribute_index(schema)].name
        except (KeyError, IndexError):
            return True
        zone = zones.get(name)
        if zone is None:
            return True
        clause_low, clause_high = clause.value_range()
        if ranges_disjoint(clause_low, clause_high, zone[0], zone[1]):
            return False
    return True


@dataclass(frozen=True)
class ZoneMap:
    """Per-partition min-max synopsis of one PAX block payload.

    Built lazily from the payload itself (``HailBlock.zone_map``), so it is consistent with
    the data by construction; :meth:`matches` is the staleness guard executors check before
    trusting it (a payload mutated after the synopsis was built fails the row-count check and
    the scan falls back to reading everything).
    """

    #: Number of rows the synopsis was built over (staleness guard).
    num_rows: int
    #: Partition width in rows the per-partition zones are aligned to.
    partition_size: int
    #: Block-level ``attribute -> (min, max)``.
    block_zones: dict[str, tuple[Any, Any]]
    #: Per-partition ``attribute -> ((min, max), ...)``, one pair per partition.
    partition_zones: dict[str, tuple[tuple[Any, Any], ...]]

    @classmethod
    def build(cls, pax: "PaxBlock", partition_size: int) -> "ZoneMap":
        """Compute the synopsis of ``pax`` at ``partition_size``-row granularity."""
        if partition_size <= 0:
            raise ValueError("partition_size must be positive")
        block_zones: dict[str, tuple[Any, Any]] = {}
        partition_zones: dict[str, tuple[tuple[Any, Any], ...]] = {}
        if pax.num_rows:
            for field, column in zip(pax.schema.fields, pax.columns):
                block_zones[field.name] = (min(column), max(column))
                partition_zones[field.name] = tuple(
                    (min(window), max(window))
                    for window in (
                        column[start : start + partition_size]
                        for start in range(0, pax.num_rows, partition_size)
                    )
                )
        return cls(
            num_rows=pax.num_rows,
            partition_size=partition_size,
            block_zones=block_zones,
            partition_zones=partition_zones,
        )

    def matches(self, num_rows: int) -> bool:
        """Staleness guard: is this synopsis sized for a payload of ``num_rows`` rows?"""
        return self.num_rows == num_rows

    def num_partitions(self) -> int:
        """Number of partitions the synopsis covers."""
        if self.num_rows == 0:
            return 0
        return (self.num_rows + self.partition_size - 1) // self.partition_size

    # ------------------------------------------------------------------ block-level checks
    def block_ranges(self) -> ZoneRanges:
        """The block-level synopsis in the ``Dir_rep`` triple form."""
        return tuple((name, low, high) for name, (low, high) in self.block_zones.items())

    def may_match(self, predicate: Optional["Predicate"], schema: "Schema") -> bool:
        """Whether any row of the block may satisfy ``predicate`` (block-level zones only)."""
        return may_match_ranges(self.block_ranges(), predicate, schema)

    # ------------------------------------------------------------------ partition pruning
    def prune_ranges(
        self, predicate: Optional["Predicate"], schema: "Schema", start: int, end: int
    ) -> list[tuple[int, int]]:
        """Row windows within ``[start, end)`` whose partitions may match ``predicate``.

        Partitions where any clause is provably disjoint from the zone are dropped; the
        surviving partitions are clipped to the candidate window and merged into maximal
        contiguous row ranges (so downstream kernels see few, wide windows).  With no
        predicate — or no prunable partition — the single original window comes back.
        """
        if start >= end:
            return []
        if predicate is None or not self.partition_zones:
            return [(start, end)]
        size = self.partition_size
        first = start // size
        last = (end - 1) // size
        count = last - first + 1
        # One pass per *clause* over its zone slice, OR-ed into one byte per partition (1 =
        # some clause proves the partition empty).  Fail-closed: a clause on an unknown
        # attribute or without a zone column prunes nothing, and a zone tuple shorter than
        # the partition count prunes nothing beyond its end (the slice is padded with 0).
        dropped = bytes(count)
        for clause in predicate.clauses:
            try:
                name = schema.fields[clause.attribute_index(schema)].name
            except (KeyError, IndexError):
                continue
            zones = self.partition_zones.get(name)
            if zones is None:
                continue
            low, high = clause.value_range()
            hits = bytes(_disjoint_flags(low, high, zones[first : last + 1])).ljust(count, b"\0")
            # Every byte is 0 or 1, so the bytewise OR is one big-integer OR.
            merged = int.from_bytes(dropped, "big") | int.from_bytes(hits, "big")
            dropped = merged.to_bytes(count, "big")
        # Maximal runs of surviving partitions become the windows; only the first and the
        # last partition can stick out of ``[start, end)``, so clipping the run is enough.
        windows: list[tuple[int, int]] = []
        run = dropped.find(0)
        while run >= 0:
            run_end = dropped.find(1, run)
            if run_end < 0:
                run_end = count
            windows.append(
                (max(start, (first + run) * size), min(end, (first + run_end) * size))
            )
            run = dropped.find(0, run_end)
        return windows


def _disjoint_flags(
    clause_low: Any, clause_high: Any, zones: Sequence[tuple[Any, Any]]
) -> list[bool]:
    """:func:`ranges_disjoint` of one clause range against each zone, in one comprehension.

    The comprehension has no per-zone ``try``: any ``TypeError`` (a ``None`` bound, mixed
    types in one zone column) re-runs the slice through :func:`ranges_disjoint` itself, whose
    per-zone fail-closed answer is the definition of the result.
    """
    try:
        if clause_low is None:
            if clause_high is None:
                return []
            return [clause_high < zone_low for zone_low, _ in zones]
        if clause_high is None:
            return [clause_low > zone_high for _, zone_high in zones]
        return [
            clause_high < zone_low or clause_low > zone_high for zone_low, zone_high in zones
        ]
    except TypeError:
        return [ranges_disjoint(clause_low, clause_high, *zone) for zone in zones]


def pruned_row_count(windows: Sequence[tuple[int, int]], start: int, end: int) -> int:
    """Rows of the original ``[start, end)`` window that pruning removed."""
    kept = sum(window_end - window_start for window_start, window_end in windows)
    return max(0, (end - start) - kept)
