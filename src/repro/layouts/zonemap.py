"""Zone maps: per-block and per-partition min-max synopses for data skipping.

A zone map records, for an attribute of a PAX block, the minimum and maximum value stored
— once at block granularity and once per index partition.  A selection clause whose value
range is provably disjoint from a zone cannot match any row inside it, so

- the **planner** consults the block-level ranges registered in ``Dir_rep``
  (``HailBlockReplicaInfo.zone_ranges``) to skip whole blocks before any payload is opened
  (the ``ZONE_MAP_SKIP`` access path), and
- the **executor** consults the payload's own per-partition zone map to flag the rows of the
  candidate window whose partitions cannot match (:meth:`ZoneMap.pruned_rows`: one byte per
  row, handed to the filter kernel as is).

Every block-level decision (the planner's skip, the executor's re-verification of it, top-k's
early termination) is one test, :func:`disjoint_attribute` over :func:`ranges_disjoint`.
Correctness is fail-closed throughout: a zone map can only ever *widen* the set of rows read,
never narrow the result.  Any doubt — an unknown attribute or uncomparable operand types,
which leave a clause proving nothing, or a synopsis whose row count disagrees with the
payload, which disables skipping for that block — lets the scan proceed.  The executor additionally re-verifies every planner-ordered skip
against the payload's own (freshly derivable) synopsis, so a stale ``Dir_rep`` entry degrades
to a full scan rather than a wrong answer.

Both granularities cost what a query names.  Per-partition zones are computed one attribute
at a time, the first time a clause filters on it — except at partition size 1, where a zone
is ``(v, v)`` and the flags are read off the column itself, so no pairs are built at all (a
caller may pass a numeric backend for that comparison; this module imports nothing from the
engine).  Block-level zones are computed once per *row set* and carried by
:meth:`PaxBlock.reorder`, so every differently-sorted replica of a block shares them —
except FLOAT/DOUBLE columns, whose ``min``/``max`` depend on the row order (NaN, ``-0.0`` vs
``0.0``) and are recomputed for every block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.layouts.schema import FieldType

if TYPE_CHECKING:
    from repro.hail.predicate import Predicate
    from repro.layouts.pax import PaxBlock
    from repro.layouts.schema import Schema

#: ``Dir_rep`` zone ranges: one ``(attribute, min, max)`` triple per attribute with data.
ZoneRanges = tuple[tuple[str, Any, Any], ...]

#: A numeric backend for one clause's one-row-zone flags: ``(pax, index, low, high, start,
#: end) -> flags``, or ``None`` when it declines (see :meth:`ZoneMap.pruned_rows`).
ColumnFlags = Callable[["PaxBlock", int, Any, Any, int, int], Optional[bytes]]

#: Types whose ``min``/``max`` may differ between two orders of the same values.
_ORDER_DEPENDENT = (FieldType.FLOAT, FieldType.DOUBLE)


def _column_zone(pax: "PaxBlock", index: int) -> tuple[str, Any, Any]:
    """One column's ``(name, min, max)``, from the block's per-row-set memo when it may be."""
    triple = pax._zone_triples[index]
    if triple is None:
        column_field = pax.schema.fields[index]
        column = pax.columns[index]
        triple = (column_field.name, min(column), max(column))
        if column_field.ftype not in _ORDER_DEPENDENT:
            pax._zone_triples[index] = triple
    return triple


def block_zone_ranges(pax: "PaxBlock") -> ZoneRanges:
    """Block-level min/max per attribute, in the ``Dir_rep`` triple form.

    This is the cheap synopsis registered with the namenode at replica-creation time (upload,
    adaptive build commit, eviction downgrade, balancer re-replication), with no per-partition
    breakdown.  Each column's triple is computed once per row set and carried to every reorder
    of the block; FLOAT/DOUBLE columns are recomputed per block.  Empty blocks yield an empty
    tuple.
    """
    if pax.num_rows == 0:
        return ()
    return tuple(_column_zone(pax, index) for index in range(len(pax.columns)))


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
        return (clause_high is not None and clause_high < zone_low) or (
            clause_low is not None and clause_low > zone_high
        )
    except TypeError:
        return False


def disjoint_attribute(
    zone_of: Callable[[str], Optional[tuple[Any, Any]]],
    predicate: "Predicate",
    schema: "Schema",
) -> Optional[str]:
    """The attribute of the first clause whose value range is provably outside its zone.

    This is the one clause-vs-zone test: the planner's ``Dir_rep`` skip, the executor's
    re-verification against the payload and :func:`may_match_ranges` all ask it.
    ``zone_of(name)`` is an attribute's ``(min, max)`` zone, or ``None`` without one.  A
    clause whose attribute does not resolve against ``schema`` or has no zone proves nothing
    and is passed over — one disjoint clause is enough for a conjunction.  ``None`` means no
    clause proves the block empty.
    """
    for clause in predicate.clauses:
        try:
            name = schema.fields[clause.attribute_index(schema)].name
        except (KeyError, IndexError):
            continue
        zone = zone_of(name)
        if zone is not None and ranges_disjoint(*clause.value_range(), *zone):
            return name
    return None


def may_match_ranges(
    ranges: Optional[ZoneRanges], predicate: Optional["Predicate"], schema: "Schema"
) -> bool:
    """Whether a block with ``Dir_rep`` zone ``ranges`` may hold rows matching ``predicate``.

    ``True`` (may match → must scan) is the fail-closed default: missing synopsis or missing
    predicate answer ``True``.  Only a clause whose value range is provably disjoint from the
    recorded zone justifies a skip (:func:`disjoint_attribute`).

    Census keep list (``tests/test_census.py``): ground truth for tests (``ZoneMap.may_match`` must
    agree with it).
    """
    if not ranges or predicate is None:
        return True
    zones = {name: (low, high) for name, low, high in ranges}
    return disjoint_attribute(zones.get, predicate, schema) is None


@dataclass(frozen=True)
class ZoneMap:
    """Per-partition min-max synopsis of one PAX block payload, filled per attribute.

    :meth:`build` records the payload and computes nothing; the first clause naming an
    attribute fills that attribute's zones — its ``(min, max)`` pair per partition for
    :meth:`pruned_rows` (none at partition size 1, where the column is the zones), its
    block-level pair for :meth:`may_match` — and the map keeps them, so a query pays for the
    columns it filters on, not for every column of the schema.
    Derived from the payload itself (``HailBlock.zone_map``), the synopsis is consistent with
    the data by construction, and a ``PaxBlock``'s tuple columns cannot change under it.
    :meth:`matches` is the staleness guard executors check before trusting a map (one
    injected or built for another payload fails the row-count check and the scan falls back
    to reading everything).  A map built by hand, without ``pax``, knows exactly the zones it
    was given.
    """

    #: Number of rows the synopsis was built over (staleness guard).
    num_rows: int
    #: Partition width in rows the per-partition zones are aligned to.
    partition_size: int
    #: Block-level ``attribute -> (min, max)``, filled on first use.
    block_zones: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    #: Per-partition ``attribute -> ((min, max), ...)``, one pair per partition, filled on
    #: first use.
    partition_zones: dict[str, tuple[tuple[Any, Any], ...]] = field(default_factory=dict)
    #: The block the zones are computed from.
    pax: Optional["PaxBlock"] = field(default=None, repr=False, compare=False)

    @classmethod
    def build(cls, pax: "PaxBlock", partition_size: int) -> "ZoneMap":
        """The synopsis of ``pax`` at ``partition_size``-row granularity (zones filled on use)."""
        if partition_size <= 0:
            raise ValueError("partition_size must be positive")
        return cls(num_rows=pax.num_rows, partition_size=partition_size, pax=pax)

    def matches(self, num_rows: int) -> bool:
        """Staleness guard: is this synopsis sized for a payload of ``num_rows`` rows?"""
        return self.num_rows == num_rows

    def num_partitions(self) -> int:
        """Number of partitions the synopsis covers."""
        if self.num_rows == 0:
            return 0
        return (self.num_rows + self.partition_size - 1) // self.partition_size

    def _source_index(self, name: str) -> Optional[int]:
        """Column of ``name`` in the source block; ``None`` when there is nothing to read."""
        pax = self.pax
        if pax is None or not pax.num_rows or not pax.schema.has_field(name):
            return None
        return pax.schema.index_of(name)

    def _block_zone(self, name: str) -> Optional[tuple[Any, Any]]:
        """``name``'s block-level ``(min, max)``, computed on first use."""
        zone = self.block_zones.get(name)
        if zone is None:
            index = self._source_index(name)
            if index is not None:
                _, low, high = _column_zone(self.pax, index)
                zone = self.block_zones[name] = (low, high)
        return zone

    def _partition_zones(self, name: str) -> Optional[tuple[tuple[Any, Any], ...]]:
        """``name``'s ``(min, max)`` pair per partition, computed on first use."""
        zones = self.partition_zones.get(name)
        if zones is None:
            index = self._source_index(name)
            if index is not None:
                column = self.pax.columns[index]
                size = self.partition_size
                zones = self.partition_zones[name] = tuple(
                    (min(window), max(window))
                    for window in (
                        column[start : start + size] for start in range(0, len(column), size)
                    )
                )
        return zones

    # ------------------------------------------------------------------ block-level checks
    def may_match(self, predicate: Optional["Predicate"], schema: "Schema") -> bool:
        """Whether any row of the block may satisfy ``predicate`` (block-level zones of the
        clause attributes only, computed up to the first disjoint clause)."""
        return predicate is None or disjoint_attribute(self._block_zone, predicate, schema) is None

    # ------------------------------------------------------------------ partition pruning
    def pruned_rows(
        self,
        predicate: Optional["Predicate"],
        schema: "Schema",
        start: int,
        end: int,
        column_flags: Optional[ColumnFlags] = None,
    ) -> Optional[bytes]:
        """Per-row pruning flags over ``[start, end)``: one byte per row, 1 = pruned.

        A row is pruned when some clause is provably disjoint from its partition's zone.
        ``None`` means nothing is pruned: no predicate, an empty window, or no clause proves
        any partition empty.  At partition size 1 a zone is ``(v, v)``, so a map derived from
        its own block reads the flags straight off the column and builds no pairs — through
        ``column_flags(pax, index, low, high, start, end)`` when it is given and does not
        decline (``None``), through a comprehension otherwise.  Zones the map was given
        (``partition_zones``) are always read as given.
        """
        if predicate is None or start >= end:
            return None
        size = self.partition_size
        first = start // size
        count = (end - 1) // size - first + 1
        # One pass per *clause*, OR-ed into one byte per partition (1 = some clause proves the
        # partition empty).  Fail-closed: a clause on an unknown attribute or without zones
        # prunes nothing, and a zone tuple shorter than the partition count prunes nothing
        # beyond its end (the flags are padded with 0).  Every byte is 0 or 1, so the bytewise
        # OR is one big-integer OR.
        dropped = 0
        for clause in predicate.clauses:
            try:
                name = schema.fields[clause.attribute_index(schema)].name
            except (KeyError, IndexError):
                continue
            low, high = clause.value_range()
            if size == 1 and name not in self.partition_zones:
                hits = self._column_flags(name, low, high, start, end, column_flags)
            else:
                zones = self._partition_zones(name)
                hits = None if zones is None else bytes(
                    _disjoint_flags(low, high, zones[first : first + count])
                )
            if hits:
                dropped |= int.from_bytes(hits.ljust(count, b"\0"), "big")
        if not dropped:
            return None
        flags = dropped.to_bytes(count, "big")
        if size == 1:
            return flags
        # Expand partitions to rows; only the first and the last partition can stick out of
        # ``[start, end)``, so one slice clips them.
        pruned, kept = b"\1" * size, bytes(size)
        offset = start - first * size
        rows = b"".join([pruned if flag else kept for flag in flags])
        return rows[offset : offset + end - start]

    def _column_flags(
        self,
        name: str,
        low: Any,
        high: Any,
        start: int,
        end: int,
        column_flags: Optional[ColumnFlags],
    ) -> Optional[bytes]:
        """One clause's flags over one-row zones, read off ``name``'s column in the block."""
        index = self._source_index(name)
        if index is None:
            return None
        flags = None
        if column_flags is not None:
            flags = column_flags(self.pax, index, low, high, start, end)
        if flags is None:
            flags = bytes(_disjoint_values(low, high, self.pax.columns[index][start:end]))
        return flags


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


def _disjoint_values(clause_low: Any, clause_high: Any, values: Sequence) -> list[bool]:
    """:func:`_disjoint_flags` over the one-row zones ``(v, v)`` of ``values``, without pairs."""
    try:
        if clause_low is None:
            if clause_high is None:
                return []
            return [clause_high < value for value in values]
        if clause_high is None:
            return [clause_low > value for value in values]
        return [clause_high < value or clause_low > value for value in values]
    except TypeError:
        return [ranges_disjoint(clause_low, clause_high, value, value) for value in values]
