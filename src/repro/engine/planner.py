"""The physical query planner.

The planner turns "which replica should this task open, and how should it read it?" — a decision
previously duplicated across three record readers — into an explicit :class:`BlockPlan` per
block and a :class:`QueryPlan` per query.  It is purely a metadata consumer: every decision is
answered from the namenode's directories (``Dir_block`` for replica placement, ``Dir_rep`` for
per-replica sort order and index, Section 3.3 of the paper), never by opening block payloads.

The planner absorbs the ``getHostsWithIndex`` logic of Section 4.3
(:func:`choose_indexed_host`, formerly ``repro.hail.scheduler``): both the JobTracker-facing
split computation and the record readers now share one implementation of the replica choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.engine.access_path import AccessPath, BlockPlan
from repro.engine.adaptive import AdaptiveJobContext
from repro.hdfs.filesystem import Hdfs
from repro.hdfs.namenode import NameNode
from repro.layouts.schema import Schema
from repro.layouts.zonemap import ranges_disjoint

#: Jobconf property that switches zone-map data skipping on for a job's readers.
ZONE_MAP_PROPERTY = "hail.zone.maps"

if TYPE_CHECKING:  # imported lazily at runtime: repro.hail's __init__ imports us back
    from repro.hail.annotation import HailQuery
    from repro.hail.predicate import Predicate


def choose_indexed_host(
    namenode: NameNode,
    block_id: int,
    attributes: Sequence[str],
    prefer_node: Optional[int] = None,
) -> Optional[tuple[int, str]]:
    """Pick a datanode whose replica of ``block_id`` is indexed on one of ``attributes``.

    Attributes are tried in the given order (the order of the predicate's clauses), so a
    conjunction like Bob-Q3 (``sourceIP = ... AND visitDate = ...``) uses the first filter
    attribute for which an index exists.  Among candidate datanodes, ``prefer_node`` wins when
    it is one of them (data locality), otherwise the namenode's first entry is used.

    Returns ``(datanode_id, attribute)`` or ``None`` when no alive replica has a matching index
    — in which case HAIL falls back to standard scanning and scheduling.
    """
    for attribute in attributes:
        hosts = namenode.hosts_with_index(block_id, attribute, alive_only=True)
        if not hosts:
            continue
        if prefer_node is not None and prefer_node in hosts:
            return prefer_node, attribute
        return hosts[0], attribute
    return None


@dataclass
class QueryPlan:
    """The physical plan of one query over one file: one :class:`BlockPlan` per block."""

    path: str
    filter_attributes: tuple[str, ...]
    projection: Optional[tuple[str, ...]]
    block_plans: list[BlockPlan] = field(default_factory=list)

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
        """The per-block plan for ``block_id``, or ``None``."""
        for plan in self.block_plans:
            if plan.block_id == block_id:
                return plan
        return None

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
            # Counts every plan that stages a build — pay-forward scans *and* piggyback
            # builds riding on index scans — matching describe()'s "+build(...)" markers
            # and the ADAPTIVE_INDEX_BUILDS job counter.
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
       (:func:`choose_indexed_host`, preferring the executing node);
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
        """An empty :class:`QueryPlan` for ``path`` with filter/projection metadata bound.

        Used both by :meth:`plan_query` and by callers that fill ``block_plans`` with the
        plans a job actually executed (``BaseSystem.run_query``).
        """
        namenode = self.hdfs.namenode
        block_ids = namenode.file_blocks(path)
        schema = namenode.logical_block(block_ids[0]).schema if block_ids else None
        predicate = self._bound_predicate(annotation, schema)
        projection = self._bound_projection(annotation, schema)
        attributes = tuple(predicate.attributes(schema)) if predicate is not None else ()
        return QueryPlan(path=path, filter_attributes=attributes, projection=projection)

    def plan_query(
        self,
        path: str,
        annotation: Optional[HailQuery] = None,
        prefer_node: Optional[int] = None,
        preferred_replicas: Optional[dict[int, int]] = None,
    ) -> QueryPlan:
        """Plan every block of ``path`` for the query described by ``annotation``."""
        namenode = self.hdfs.namenode
        block_ids = namenode.file_blocks(path)
        schema = namenode.logical_block(block_ids[0]).schema if block_ids else None
        predicate = self._bound_predicate(annotation, schema)
        projection = self._bound_projection(annotation, schema)
        plan = self.query_frame(path, annotation)
        preferred_replicas = preferred_replicas or {}
        for block_id in block_ids:
            plan.block_plans.append(
                self._plan_block(
                    block_id,
                    schema,
                    predicate,
                    projection,
                    preferred=preferred_replicas.get(block_id),
                    prefer_node=prefer_node,
                )
            )
        return plan

    def plan_block(
        self,
        block_id: int,
        annotation: Optional[HailQuery] = None,
        preferred: Optional[int] = None,
        prefer_node: Optional[int] = None,
        adaptive: Optional[AdaptiveJobContext] = None,
    ) -> BlockPlan:
        """Plan a single block (the record readers' entry point).

        ``adaptive`` is the job's adaptive-indexing policy; asking it charges the job's build
        budget, which is why only the record readers (which execute what they plan) pass it —
        the split-phase :meth:`plan_query` pass never does.
        """
        schema = self.hdfs.namenode.logical_block(block_id).schema
        predicate = self._bound_predicate(annotation, schema)
        projection = self._bound_projection(annotation, schema)
        return self._plan_block(
            block_id,
            schema,
            predicate,
            projection,
            preferred=preferred,
            prefer_node=prefer_node,
            adaptive=adaptive,
        )

    def filter_attributes(self, path: str, annotation: Optional[HailQuery]) -> list[str]:
        """The query's filter attribute names (empty for jobs without a selection predicate)."""
        block_ids = self.hdfs.namenode.file_blocks(path)
        if not block_ids:
            return []
        schema = self.hdfs.namenode.logical_block(block_ids[0]).schema
        predicate = self._bound_predicate(annotation, schema)
        if predicate is None:
            return []
        return predicate.attributes(schema)

    # ------------------------------------------------------------------ internals
    def _plan_block(
        self,
        block_id: int,
        schema: Optional[Schema],
        predicate: Optional[Predicate],
        projection: Optional[tuple[str, ...]],
        preferred: Optional[int],
        prefer_node: Optional[int],
        adaptive: Optional[AdaptiveJobContext] = None,
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

        if preferred is not None and preferred in hosts:
            datanode_id = preferred
        else:
            choice = None
            if predicate is not None:
                choice = choose_indexed_host(
                    namenode, block_id, predicate.attributes(schema), prefer_node=prefer_node
                )
            if choice is not None:
                datanode_id = choice[0]
            elif prefer_node is not None and prefer_node in hosts:
                datanode_id = prefer_node
            else:
                datanode_id = hosts[0]

        if self.zone_maps and predicate is not None and schema is not None:
            skip_attribute = self._zone_map_skip(block_id, datanode_id, predicate, schema)
            if skip_attribute is not None:
                # Classified before any adaptive-build marking: a block no row of which can
                # match must neither stage a build nor count as an index-scan fallback.
                return BlockPlan(
                    block_id=block_id,
                    access_path=AccessPath.ZONE_MAP_SKIP,
                    datanode_id=datanode_id,
                    attribute=skip_attribute,
                    estimated_rows=0,
                    estimated_bytes=0,
                )

        plan = self._classify(block_id, datanode_id, schema, predicate, projection, None)
        if plan.uses_index and adaptive is not None and adaptive.record_usage:
            # LRU bookkeeping for the lifecycle manager: this replica's index was chosen by a
            # plan that will actually execute.  ``adaptive`` marks the execution path (only
            # record readers pass it), so read-only passes — ``explain()``, the split-phase
            # ``plan_query`` — never skew the eviction order; ``record_usage`` is off during
            # the failure runner's discarded baseline probe; and the per-run memo keeps
            # rescheduled/speculative attempts from double-counting a use.
            if (block_id, datanode_id) not in adaptive.usage_touches:
                adaptive.usage_touches.add((block_id, datanode_id))
                namenode.touch_index_usage(block_id, datanode_id)
        if predicate is not None and schema is not None:
            if not plan.uses_index:
                plan.fallback_reason = self._fallback_reason(
                    block_id, predicate.attributes(schema)
                )
                self._mark_adaptive_build(plan, predicate, schema, adaptive)
            else:
                self._mark_secondary_build(plan, predicate, schema, adaptive)
        return plan

    def _zone_map_skip(
        self, block_id: int, datanode_id: int, predicate: Predicate, schema: Schema
    ) -> Optional[str]:
        """The attribute whose ``Dir_rep`` zone proves the block cannot match, or ``None``.

        Pure metadata: only the registered block-level ranges are consulted.  Every doubt —
        no synopsis, an uncovered attribute, uncomparable operands — answers ``None`` (scan),
        and the executor independently re-verifies any skip against the payload's own zone
        map, so a stale entry here can cost a scan but never a row.
        """
        info = self.hdfs.namenode.replica_info(block_id, datanode_id)
        if info is None or not info.zone_ranges:
            return None
        zones = {name: (low, high) for name, low, high in info.zone_ranges}
        for clause in predicate.clauses:
            try:
                name = schema.fields[clause.attribute_index(schema)].name
            except (KeyError, IndexError):
                continue
            zone = zones.get(name)
            if zone is None:
                continue
            low, high = clause.value_range()
            if ranges_disjoint(low, high, zone[0], zone[1]):
                return name
        return None

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

    @staticmethod
    def _mark_adaptive_build(
        plan: BlockPlan,
        predicate: Predicate,
        schema: Schema,
        adaptive: Optional[AdaptiveJobContext],
    ) -> None:
        """Upgrade an index-less scan to an :attr:`ADAPTIVE_INDEX_BUILD` when the policy offers.

        The build targets the first filter attribute — the same preference order
        :func:`choose_indexed_host` uses — so repeated queries converge on the attribute the
        workload actually filters by.
        """
        if adaptive is None or plan.datanode_id < 0:
            return
        if plan.access_path not in (AccessPath.FULL_SCAN, AccessPath.PAX_PROJECTION_SCAN):
            return
        attributes = predicate.attributes(schema)
        if not attributes:
            return
        attribute = attributes[0]
        if adaptive.offers(plan.block_id, attribute):
            plan.access_path = AccessPath.ADAPTIVE_INDEX_BUILD
            plan.build_attribute = attribute

    def _mark_secondary_build(
        self,
        plan: BlockPlan,
        predicate: Predicate,
        schema: Schema,
        adaptive: Optional[AdaptiveJobContext],
    ) -> None:
        """Offer a *piggyback* build on the next uncovered filter attribute (multi-attribute).

        The block is already answered via an index on one of the query's filter attributes; a
        conjunctive predicate may still carry attributes no replica is indexed on.  Under
        ``adaptive_multi_attribute`` the scan's executor — which holds the block anyway —
        builds the missing index as a by-product, so mixed-predicate workloads converge to
        multi-index coverage instead of forever index-scanning on one attribute.  The plan's
        access path stays an index scan; only ``build_attribute`` marks the piggyback work.
        """
        if adaptive is None or not adaptive.multi_attribute or plan.datanode_id < 0:
            return
        namenode = self.hdfs.namenode
        for attribute in predicate.attributes(schema):
            if attribute == plan.attribute:
                continue
            if namenode.hosts_with_index(plan.block_id, attribute, alive_only=True):
                continue
            if adaptive.offers(plan.block_id, attribute):
                plan.build_attribute = attribute
            return  # at most one piggyback build per block scan

    def _classify(
        self,
        block_id: int,
        datanode_id: int,
        schema: Optional[Schema],
        predicate: Optional[Predicate],
        projection: Optional[tuple[str, ...]],
        fallback_reason: Optional[str],
    ) -> BlockPlan:
        """Derive the access path of the chosen replica from the namenode's ``Dir_rep``."""
        namenode = self.hdfs.namenode
        info = namenode.replica_info(block_id, datanode_id)
        logical = namenode.logical_block(block_id)
        # Stock text replicas register no Dir_rep entry: sizes come from the logical block.
        has_info = info is not None
        num_records = (has_info and info.num_records) or len(logical.records)
        block_bytes = (has_info and info.block_size_bytes) or logical.text_size_bytes
        indexed_attribute = info.indexed_attribute if has_info else None
        index_type = info.index_type if has_info else None
        pax_layout = has_info and info.pax_layout

        attribute: Optional[str] = None
        if (
            predicate is not None
            and indexed_attribute is not None
            and schema is not None
            and predicate.clause_for(indexed_attribute, schema) is not None
        ):
            attribute = indexed_attribute
            access_path = (
                AccessPath.TROJAN_INDEX_SCAN if index_type == "trojan" else AccessPath.INDEX_SCAN
            )
            fallback_reason = None
        elif pax_layout and projection is not None:
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
            fallback_reason=fallback_reason,
        )

    @staticmethod
    def _bound_predicate(
        annotation: Optional[HailQuery], schema: Optional[Schema]
    ) -> Optional[Predicate]:
        if annotation is None or annotation.filter is None or schema is None:
            return None
        return annotation.bound_filter(schema)

    @staticmethod
    def _bound_projection(
        annotation: Optional[HailQuery], schema: Optional[Schema]
    ) -> Optional[tuple[str, ...]]:
        if annotation is None or annotation.projection is None or schema is None:
            return None
        names = annotation.projection_names(schema)
        return tuple(names) if names is not None else None
