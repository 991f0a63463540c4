"""The physical query planner.

The planner turns "which replica should this task open, and how should it read it?" — a decision
previously duplicated across three record readers — into an explicit :class:`BlockPlan` per
block and a :class:`QueryPlan` per query.  It is purely a metadata consumer: every decision is
answered from the namenode's directories (``Dir_block`` for replica placement, ``Dir_rep`` for
per-replica sort order and index, Section 3.3 of the paper), never by opening block payloads.

The planner absorbs the ``getHostsWithIndex`` logic of Section 4.3: one walk per block over the
query's filter attributes yields both the replica choice (the first attribute with an alive
indexed host) and every alive indexed host (``BlockPlan.index_hosts``, which HAIL's split
phase turns into ``InputSplit.index_locations``).  HAIL plans each block once per query shape
and layout write to that block, in the split phase (``HailInputFormat.get_splits`` keeps the
plans in the deployment's ``SplitMemo``); its record readers execute that plan
(:meth:`PhysicalPlanner.for_execution`) and re-plan only a block whose pinned replica died or
changed since.

The job's ``@HailQuery`` is bound to the file's schema once, too, in every input format's split
phase: :meth:`PhysicalPlanner.query_frame` turns it into one immutable :class:`BoundQuery`
(typed predicate, projection names, the column indexes every block's reads and reconstruction
use, each filter attribute's first clause and whether a sorted run may answer it) that the
:class:`QueryPlan` carries, so the per-block planning steps and the executor read bound fields
instead of re-deriving them, and the plan a finished job reports (``JobResult.plan``) is framed
from the same binding.  A reader executes a copy of the carried block plan
(:meth:`PhysicalPlanner.for_execution`, through ``BlockPlan.__copy__``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Optional, Sequence

from repro.engine.access_path import AccessPath, BlockPlan
from repro.engine.adaptive import AdaptiveJobContext, placement_candidates
from repro.hdfs.filesystem import Hdfs
from repro.hdfs.namenode import NameNode
from repro.layouts.zonemap import disjoint_attribute
from repro.query.annotation import HailQuery
from repro.query.predicate import Comparison, Predicate
from repro.query.schema import Schema


def _index_walk(
    namenode: NameNode, block_id: int, attributes: Sequence[str], hosts: Sequence[int]
) -> list[tuple[str, list[int]]]:
    """``getHostsWithIndex`` per attribute, in order, over ``hosts`` (the block's alive
    holders): ``(attribute, alive indexed hosts)``."""
    return [
        (attribute, namenode.indexed_among(block_id, attribute, hosts))
        for attribute in attributes
    ]


def _pick(
    walk: list[tuple[str, list[int]]], prefer_node: Optional[int]
) -> Optional[tuple[int, str]]:
    """The first attribute with an indexed host; ``prefer_node`` among its hosts, else the first."""
    for attribute, hosts in walk:
        if hosts:
            return (prefer_node if prefer_node in hosts else hosts[0]), attribute
    return None


@dataclass(frozen=True)
class BoundQuery:
    """A job's ``@HailQuery`` bound to one schema: everything per-block work reads of the query.

    Built once per job, in its split phase (:meth:`PhysicalPlanner.query_frame`), and carried
    by its :class:`QueryPlan`.
    Column indexes are 0-based; ``positions`` are the 1-based ``HailRecord`` positions of the
    projected attributes.  Without a projection every attribute is projected (and read).
    """

    schema: Optional[Schema]
    annotation: Optional[HailQuery]
    predicate: Optional[Predicate]
    #: Projected attribute names, or ``None`` for "all attributes".
    projection: Optional[tuple[str, ...]]
    #: Filter attribute names in clause order, duplicates removed.
    filter_attributes: tuple[str, ...]
    filter_indexes: tuple[int, ...]
    projection_indexes: tuple[int, ...]
    positions: tuple[int, ...]
    #: Columns a scan of a PAX replica fetches (see :meth:`read_indexes`).
    pax_read_indexes: tuple[int, ...]
    #: Every column: what a scan of a row-layout replica fetches.
    every_index: tuple[int, ...]
    #: Per filter attribute, its first clause — the one an index on that attribute looks up —
    #: and whether a sorted run may answer it: not when an operand is NaN, which compares
    #: false with every value (see :func:`~repro.engine.kernels.sorted_range`).
    first_clauses: dict[str, tuple[Comparison, bool]] = field(compare=False, repr=False)

    @classmethod
    def bind(cls, annotation: Optional[HailQuery], schema: Optional[Schema]) -> BoundQuery:
        """Bind ``annotation`` to ``schema`` (no filter and no projection without a schema)."""
        predicate = projection = None
        if annotation is not None and schema is not None:
            predicate = annotation.bound_filter(schema)
            names = annotation.projection_names(schema)
            projection = tuple(names) if names is not None else None
        attributes = tuple(predicate.attributes(schema)) if predicate is not None else ()
        first_clauses: dict[str, tuple[Comparison, bool]] = {}
        for clause in predicate.clauses if predicate is not None else ():
            name = clause.attribute_name(schema)
            if name not in first_clauses:
                first_clauses[name] = (clause, not any(x != x for x in clause.operands))
        every_column = tuple(range(len(schema))) if schema is not None else ()
        if projection is None:
            projection_indexes = read_indexes = every_column
        else:
            projection_indexes = tuple(map(schema.index_of, projection))
            read_indexes = tuple(map(schema.index_of, dict.fromkeys(attributes + projection)))
        return cls(
            schema=schema,
            annotation=annotation,
            predicate=predicate,
            projection=projection,
            filter_attributes=attributes,
            filter_indexes=tuple(map(schema.index_of, attributes)) if attributes else (),
            projection_indexes=projection_indexes,
            positions=tuple(index + 1 for index in projection_indexes),
            pax_read_indexes=read_indexes,
            every_index=every_column,
            first_clauses=first_clauses,
        )

    @classmethod
    def of(cls, bound: BoundQuery, schema: Schema) -> BoundQuery:
        """``bound`` for ``schema``: as is when bound to this very schema object, otherwise
        rebound from its annotation (fail closed)."""
        if bound.schema is schema:
            return bound
        return cls.bind(bound.annotation, schema)

    def read_indexes(self, pax_layout: bool) -> tuple[int, ...]:
        """The columns an index or PAX scan fetches: the filter columns, then the projected ones
        (every column without a projection).  A row-layout replica stores whole rows, so a scan
        of one reads every column."""
        return self.pax_read_indexes if pax_layout else self.every_index


#: No query, bound to no schema: what a block read whole is planned with.  Block planning
#: reads only the filter attributes, the predicate and the projection (all empty here), and
#: the schema only beside a predicate, so it plans a text block as a per-block binding of no
#: query to the block's schema would.
UNBOUND = BoundQuery.bind(None, None)


@dataclass
class QueryPlan:
    """The physical plan of one query over one file: one :class:`BlockPlan` per block."""

    path: str
    bound: BoundQuery
    block_plans: list[BlockPlan] = field(default_factory=list)

    @property
    def filter_attributes(self) -> tuple[str, ...]:
        """The query's filter attribute names, in clause order."""
        return self.bound.filter_attributes

    @property
    def projection(self) -> Optional[tuple[str, ...]]:
        """The projected attribute names, or ``None`` for all attributes."""
        return self.bound.projection

    # ------------------------------------------------------------------ aggregates
    @property
    def num_blocks(self) -> int:
        """Number of blocks the query touches."""
        return len(self.block_plans)

    def count(self, access_path: AccessPath) -> int:
        """How many blocks use ``access_path``."""
        return sum(1 for plan in self.block_plans if plan.access_path is access_path)

    @property
    def num_index_scans(self) -> int:
        """Blocks answered via a clustered (or trojan) index."""
        return sum(1 for plan in self.block_plans if plan.uses_index)

    @property
    def index_coverage(self) -> float:
        """Fraction of blocks answered via an index (1.0 right after a full HAIL upload)."""
        if not self.block_plans:
            return 0.0
        return self.num_index_scans / len(self.block_plans)

    def plan_for(self, block_id: int) -> Optional[BlockPlan]:
        """The per-block plan for ``block_id``, or ``None``.

        Indexed by block id on the first call, so ``block_plans`` must be complete by then (it
        is for every plan :meth:`PhysicalPlanner.plan_query` returns).
        """
        return self._by_block.get(block_id)

    @cached_property
    def _by_block(self) -> dict[int, BlockPlan]:
        return {plan.block_id: plan for plan in self.block_plans}

    # ------------------------------------------------------------------ rendering
    def explain(self) -> str:
        """Human-readable plan rendering (access path and chosen replica per block)."""
        header = [f"QueryPlan for {self.path!r}"]
        if self.filter_attributes:
            header.append(f"  filter attributes: {', '.join(self.filter_attributes)}")
        else:
            header.append("  filter attributes: (none — scan job)")
        if self.projection is not None:
            header.append(f"  projection: {', '.join(self.projection)}")
        else:
            header.append("  projection: * (all attributes)")
        lines = ["  " + plan.describe() for plan in self.block_plans]
        tally = ", ".join(
            f"{self.count(path)} {path.value}" for path in AccessPath if self.count(path)
        ) or "no blocks"
        footer = [f"  {self.num_blocks} blocks: {tally}"]
        return "\n".join(header + lines + footer)

    def summary(self) -> dict:
        """Compact dictionary form for reports."""
        return {
            "path": self.path,
            "blocks": self.num_blocks,
            "index_scans": self.count(AccessPath.INDEX_SCAN),
            "trojan_index_scans": self.count(AccessPath.TROJAN_INDEX_SCAN),
            "pax_projection_scans": self.count(AccessPath.PAX_PROJECTION_SCAN),
            "full_scans": self.count(AccessPath.FULL_SCAN),
            # Counts every plan that stages a build, matching describe()'s "+build(...)"
            # markers and the ADAPTIVE_INDEX_BUILDS job counter.
            "adaptive_index_builds": sum(1 for plan in self.block_plans if plan.builds_index),
            "zone_map_skips": self.count(AccessPath.ZONE_MAP_SKIP),
            "index_coverage": self.index_coverage,
        }


class PhysicalPlanner:
    """Chooses, per block, the replica to open and the access path to read it with.

    The replica preference order reproduces the behaviour the three record readers previously
    implemented independently:

    1. the split's *preferred* replica, when it is still alive (set by the input format's split
       computation so tasks land on the replica the JobTracker scheduled them close to);
    2. an alive replica whose clustered index matches one of the query's filter attributes
       (attributes tried in clause order, preferring the executing node);
    3. the executing node's local replica;
    4. any alive replica (the namenode's first entry).

    With ``zone_maps`` enabled, a block whose registered ``Dir_rep`` synopsis
    (``HailBlockReplicaInfo.zone_ranges``) proves the predicate can match no row is planned as
    :attr:`AccessPath.ZONE_MAP_SKIP` before any access-path classification: the reader opens
    the replica only to verify the synopsis (fail-closed) and surface bad records.  The
    planner stays a pure metadata consumer — the skip decision reads ``Dir_rep`` only, never
    a payload.
    """

    def __init__(self, hdfs: Hdfs, zone_maps: bool = False) -> None:
        self.hdfs = hdfs
        #: When True, blocks provably disjoint from the predicate plan as ZONE_MAP_SKIP.
        self.zone_maps = zone_maps

    # ------------------------------------------------------------------ per-query planning
    def query_frame(self, path: str, annotation: Optional[HailQuery] = None) -> QueryPlan:
        """An empty :class:`QueryPlan` for ``path``, the job's ``@HailQuery`` bound to the
        file's schema.

        The query is bound once, to the schema of the file's first block (a file has one).
        Every input format frames its job's plan here in its split phase
        (``InputFormat.get_splits``); :meth:`plan_query` fills the frame with every block's
        plan.  Past the split phase the query is only ever the :class:`BoundQuery` this makes.
        """
        namenode = self.hdfs.namenode
        block_ids = namenode.file_blocks(path)
        schema = namenode.logical_block(block_ids[0]).schema if block_ids else None
        return QueryPlan(path=path, bound=BoundQuery.bind(annotation, schema))

    def plan_query(self, path: str, annotation: Optional[HailQuery] = None) -> QueryPlan:
        """Plan every block of ``path`` for the job's ``@HailQuery`` ``annotation``, bound once
        (:meth:`query_frame`)."""
        plan = self.query_frame(path, annotation)
        plan.block_plans.extend(self.plan_blocks(self.hdfs.namenode.file_blocks(path), plan.bound))
        return plan

    def plan_blocks(self, block_ids: Iterable[int], bound: BoundQuery) -> list[BlockPlan]:
        """The split-phase plans of ``block_ids``, blocks of the file ``bound`` was bound to.

        What :meth:`plan_query` does per block, for a caller that keeps the plans of the
        file's other blocks (``HailInputFormat``'s split memo re-plans only the blocks whose
        layout changed).
        """
        return [
            self._plan_block(block_id, bound, preferred=None, prefer_node=None)
            for block_id in block_ids
        ]

    def plan_block(
        self,
        block_id: int,
        bound: Optional[BoundQuery] = None,
        preferred: Optional[int] = None,
        prefer_node: Optional[int] = None,
    ) -> BlockPlan:
        """Plan a single block (the record readers' re-planning entry point).

        ``bound`` is the :class:`BoundQuery` the job's plan carries, never a ``@HailQuery``:
        used as is while the block's schema is the one it was bound to, rebound from its
        annotation otherwise (:meth:`BoundQuery.of`).  ``None`` plans a block read whole: a
        stock text block, planned with no binding at all.
        The plan carries no execution marks: a reader hands it to :meth:`for_execution`
        before running it.
        """
        if bound is None:
            bound = UNBOUND
        else:
            bound = BoundQuery.of(bound, self.hdfs.namenode.logical_block(block_id).schema)
        return self._plan_block(block_id, bound, preferred=preferred, prefer_node=prefer_node)

    def for_execution(
        self,
        plan: BlockPlan,
        bound: BoundQuery,
        adaptive: Optional[AdaptiveJobContext],
    ) -> BlockPlan:
        """A copy of ``plan`` to execute, carrying this execution's adaptive marks.

        The executor relabels the plan it runs in place, so a plan shared by several attempts
        (the split phase's) is never handed to it; the marks — index-usage touch and adaptive
        build offer — belong to one execution, not to the plan.
        """
        plan = plan.__copy__()
        if adaptive is not None:
            schema = self.hdfs.namenode.logical_block(plan.block_id).schema
            self._mark_execution(plan, BoundQuery.of(bound, schema), adaptive)
        return plan

    # ------------------------------------------------------------------ internals
    def _plan_block(
        self,
        block_id: int,
        bound: BoundQuery,
        preferred: Optional[int],
        prefer_node: Optional[int],
    ) -> BlockPlan:
        namenode = self.hdfs.namenode
        hosts = namenode.block_datanodes(block_id, alive_only=True)
        if not hosts:
            return BlockPlan(
                block_id=block_id,
                access_path=AccessPath.FULL_SCAN,
                datanode_id=-1,
                fallback_reason="no alive replica",
            )

        attributes = bound.filter_attributes
        walk = _index_walk(namenode, block_id, attributes, hosts)
        index_hosts = tuple(dict.fromkeys(host for _, indexed in walk for host in indexed))
        choice = _pick(walk, prefer_node)
        if preferred in hosts:
            datanode_id = preferred
        elif choice is not None:
            datanode_id = choice[0]
        elif prefer_node in hosts:
            datanode_id = prefer_node
        else:
            datanode_id = hosts[0]

        info = namenode.replica_info(block_id, datanode_id)
        skip_attribute = None
        if self.zone_maps and bound.predicate is not None:
            skip_attribute = self._zone_map_skip(
                block_id, datanode_id, bound.predicate, bound.schema
            )
        if skip_attribute is not None:
            # A block no row of which can match neither stages a build (see _mark_execution)
            # nor counts as an index-scan fallback.
            plan = BlockPlan(
                block_id=block_id,
                access_path=AccessPath.ZONE_MAP_SKIP,
                datanode_id=datanode_id,
                attribute=skip_attribute,
                estimated_rows=0,
                estimated_bytes=0,
            )
        else:
            plan = self._classify(block_id, datanode_id, info, bound)
            if bound.predicate is not None and not plan.uses_index:
                plan.fallback_reason = self._fallback_reason(block_id, attributes)
        plan.index_hosts = index_hosts
        plan.replica_info = info
        return plan

    def _mark_execution(
        self, plan: BlockPlan, bound: BoundQuery, adaptive: AdaptiveJobContext
    ) -> None:
        """The execution-only step of a plan: index-usage touch, then the build offer."""
        if plan.datanode_id < 0 or plan.access_path is AccessPath.ZONE_MAP_SKIP:
            return
        if plan.uses_index and adaptive.record_usage:
            # LRU bookkeeping for the lifecycle manager: this replica's index serves a plan
            # that executes now.  Read-only passes — ``explain()``, the split phase — never
            # get here, so they never skew the eviction order; ``record_usage`` is off during
            # the failure runner's discarded baseline probe; and the per-run memo keeps
            # rescheduled/speculative attempts from double-counting a use.
            key = (plan.block_id, plan.datanode_id)
            if key not in adaptive.usage_touches:
                adaptive.usage_touches.add(key)
                self.hdfs.namenode.touch_index_usage(*key)
        if bound.predicate is not None:
            self._mark_adaptive_build(plan, bound.filter_attributes, adaptive)

    def _zone_map_skip(
        self, block_id: int, datanode_id: int, predicate: Predicate, schema: Schema
    ) -> Optional[str]:
        """The attribute whose ``Dir_rep`` zone proves the block cannot match, or ``None``.

        Pure metadata: only the registered block-level ranges are consulted.  Every doubt —
        no synopsis, an uncovered attribute, uncomparable operands — proves nothing (a clause
        that has one cannot skip), and the executor independently re-verifies any skip
        against the payload's own zone map with the same test, so a stale entry here can cost
        a scan but never a row.
        """
        info = self.hdfs.namenode.replica_info(block_id, datanode_id)
        if info is None or not info.zone_ranges:
            return None
        zones = {name: (low, high) for name, low, high in info.zone_ranges}
        return disjoint_attribute(zones.get, predicate, schema)

    def _fallback_reason(self, block_id: int, attributes: Sequence[str]) -> str:
        """Why no index scan was possible: never indexed, lost to a failure, or evicted.

        A block whose matching replica sits on a dead datanode (the Figure 8 failover
        situation) reads very differently from one whose adaptive index was dropped by
        disk-pressure eviction — and both differ from a block that was never indexed — so
        ``explain()`` distinguishes all three and names the datanodes involved.
        """
        namenode = self.hdfs.namenode
        for attribute in attributes:
            all_hosts = namenode.hosts_with_index(block_id, attribute, alive_only=False)
            if not all_hosts:
                evicted_from = namenode.index_eviction(block_id, attribute)
                if evicted_from is not None:
                    return (
                        f"indexed replica of {attribute} evicted "
                        f"(disk pressure on dn{evicted_from})"
                    )
                continue
            dead = [
                host for host in all_hosts if not self.hdfs.cluster.node(host).is_alive
            ]
            if dead and len(dead) == len(all_hosts):
                lost = "/".join(f"dn{host}" for host in dead)
                return f"indexed replica of {attribute} lost ({lost} dead)"
        return "no replica indexed on " + "/".join(attributes)

    def _mark_adaptive_build(
        self, plan: BlockPlan, attributes: tuple[str, ...], adaptive: AdaptiveJobContext
    ) -> None:
        """Upgrade an index-less scan to an :attr:`ADAPTIVE_INDEX_BUILD` when the policy offers
        and the build could be placed.

        The build targets the first filter attribute — the same preference order the replica
        choice uses — so repeated queries converge on the attribute the
        workload actually filters by.  An offer for a block no alive node could take an
        adaptive replica of (:func:`~repro.engine.adaptive.placement_candidates`, the commit's
        own rule) is refunded: the commit would drop that build, so sorting the block and
        charging its build seconds would buy nothing.  The placement is asked only after an
        offer, so blocks the policy passes over pay nothing for it.
        """
        if plan.access_path not in (AccessPath.FULL_SCAN, AccessPath.PAX_PROJECTION_SCAN):
            return
        if not attributes:
            return
        attribute = attributes[0]
        if not adaptive.offers(plan.block_id, attribute):
            return
        if placement_candidates(self.hdfs, plan.block_id) == ([], []):
            adaptive.refund(plan.block_id, attribute)
            return
        plan.access_path = AccessPath.ADAPTIVE_INDEX_BUILD
        plan.build_attribute = attribute

    def _classify(
        self,
        block_id: int,
        datanode_id: int,
        info: Any,
        bound: BoundQuery,
    ) -> BlockPlan:
        """Derive the access path of the chosen replica from its ``Dir_rep`` entry ``info``."""
        logical = self.hdfs.namenode.logical_block(block_id)
        # Stock text replicas register no Dir_rep entry: sizes come from the logical block.
        has_info = info is not None
        num_records = (has_info and info.num_records) or logical.num_records
        block_bytes = (has_info and info.block_size_bytes) or logical.text_size_bytes
        indexed_attribute = info.indexed_attribute if has_info else None
        index_type = info.index_type if has_info else None
        pax_layout = has_info and info.pax_layout

        attribute: Optional[str] = None
        if indexed_attribute is not None and indexed_attribute in bound.filter_attributes:
            attribute = indexed_attribute
            access_path = (
                AccessPath.TROJAN_INDEX_SCAN if index_type == "trojan" else AccessPath.INDEX_SCAN
            )
        elif pax_layout and bound.projection is not None:
            # Only a projection prunes minipages: a predicate-only scan must still read every
            # column to reconstruct the full tuples it emits.
            access_path = AccessPath.PAX_PROJECTION_SCAN
        else:
            access_path = AccessPath.FULL_SCAN

        return BlockPlan(
            block_id=block_id,
            access_path=access_path,
            datanode_id=datanode_id,
            attribute=attribute,
            estimated_rows=num_records,
            estimated_bytes=block_bytes,
        )
