"""Ranked top-k (``ORDER BY ... LIMIT k``) with early termination over sorted replicas.

The operator exploits the two synopses HAIL maintains per block replica in ``Dir_rep``: the
clustered-index sort order (which makes per-block extrema meaningful) and the block-level
zone ranges (``(attribute, min, max)`` triples registered at upload/build time).  Blocks are
visited best-first — the block whose zone range can contain the most extreme order values
first — and once ``k`` rows are held, any block whose entire zone range falls strictly on the
wrong side of the current ``k``-th value is skipped without opening its payload
(``TOPK_BLOCKS_SKIPPED``).  Additionally the current threshold is pushed into each block scan
as an extra comparison clause, so sorted replicas index-narrow and per-partition zone maps
prune *within* the blocks that are read.

Correctness is fail-closed: blocks without a usable bound are always read, ties with the
``k``-th value are always read, and uncomparable bound types disable skipping for that block.
Systems whose payloads are plain text (stock Hadoop) fall back to a full scan-and-sort; the
result is bit-identical, only the blocks-read fraction differs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from textwrap import indent
from typing import TYPE_CHECKING, Any, Optional

from repro.engine.executor import VectorizedExecutor
from repro.engine.planner import BoundQuery, QueryPlan
from repro.hail.hail_block import HailBlock
from repro.hdfs.errors import ReplicaNotFoundError
from repro.layouts.zonemap import ranges_disjoint
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobResult, Lowering
from repro.query.annotation import HailQuery
from repro.query.predicate import Comparison, Operator, Predicate, Query, render_sql

if TYPE_CHECKING:  # annotations only: repro.systems.base imports the operators
    from repro.systems.base import BaseSystem


@dataclass(frozen=True)
class TopKQuery:
    """A compiled ranked top-k query: ``ORDER BY order_by [DESC] LIMIT k``.

    Output rows are the ``k`` most extreme rows by ``order_by`` (after ``predicate``), in
    rank order, projected to ``projection``.  Ties at the boundary are broken
    deterministically by the full row's ``repr`` (ascending), so every system and every
    block-visit order returns the same ``k`` rows.

    Attributes
    ----------
    name:
        Short identifier used in reports.
    order_by:
        The ranking attribute.
    k:
        Number of rows to return (``LIMIT``); an ``int`` >= 1 (not a ``bool``).
    descending:
        Rank by largest-first when True (``ORDER BY ... DESC``).
    predicate:
        Optional selection applied before ranking.
    projection:
        Output columns (``None`` keeps full rows).
    description:
        SQL label; rendered from the compiled form when omitted.
    """

    name: str
    order_by: str
    k: int
    descending: bool = False
    predicate: Optional[Any] = None
    projection: Optional[tuple[str, ...]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise ValueError(f"top-k needs an integer k >= 1, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"top-k needs k >= 1, got {self.k}")
        if self.projection is not None and not self.projection:
            raise ValueError("a projection needs at least one attribute (None projects all)")
        if not self.description:
            base = render_sql(self.predicate, self.projection)
            direction = " DESC" if self.descending else ""
            object.__setattr__(
                self,
                "description",
                f"{base} ORDER BY {self.order_by}{direction} LIMIT {self.k}",
            )

    def scan_query(self) -> Query:
        """The unranked full scan used by the text fallback (full rows; ranked client-side)."""
        return Query(name=f"{self.name}-scan", predicate=self.predicate, projection=None)


# --------------------------------------------------------------------------- ranking helpers
def _trim_top(top: list[tuple], order_index: int, k: int, descending: bool) -> None:
    """Keep the best ``k`` rows in rank order, ties broken by ``repr`` ascending.

    Two stable sorts: ``repr`` first (the secondary key), then the order value — so rows with
    equal order values appear in ``repr`` order regardless of block-visit order.
    """
    top.sort(key=repr)
    top.sort(key=lambda row: row[order_index], reverse=descending)
    del top[k:]


def _block_bound(system: "BaseSystem", block_id: int, attribute: str):
    """The ``(low, high)`` zone range of ``attribute`` from any alive replica's ``Dir_rep``
    entry, or ``None`` when no replica carries a synopsis for it (the block is unskippable)."""
    namenode = system.hdfs.namenode
    for info in namenode.replica_infos(block_id, alive_only=True).values():
        for name, low, high in info.zone_ranges or ():
            if name == attribute:
                return (low, high)
    return None


def _visit_order(
    bounds: dict[int, Optional[tuple]], descending: bool
) -> list[int]:
    """Best-first block order: most promising zone range first, unbounded blocks last.

    Visiting the block that can contain the most extreme order values first makes the running
    ``k``-th threshold tight as early as possible, which maximises how many later blocks the
    skip rule and the pushed-down threshold clause can prune.
    """
    bounded = [bid for bid, bound in bounds.items() if bound is not None]
    unbounded = [bid for bid, bound in bounds.items() if bound is None]
    try:
        if descending:
            bounded.sort(key=lambda bid: bounds[bid][1], reverse=True)
        else:
            bounded.sort(key=lambda bid: bounds[bid][0])
    except TypeError:  # uncomparable bound types: keep file order, never mis-skip
        bounded = sorted(bounded)
    return bounded + sorted(unbounded)


def _threshold_clause(query: TopKQuery, kth_value: Any) -> Comparison:
    """The clause pushed down once ``k`` rows are held: ``order_by >= kth`` (descending) /
    ``<= kth`` (ascending).

    A block whose zone range is disjoint from it is skipped unread
    (:func:`~repro.layouts.zonemap.ranges_disjoint`, which fails closed on uncomparable
    types).  A block that is read gets it appended to the base predicate, so a replica sorted
    on ``order_by`` index-narrows the candidate window and per-partition zone maps prune
    inside the block.  It is inclusive, so ties are never skipped and boundary ties still
    surface: a tied row may displace a held row under the ``repr`` tie-break.
    """
    operator = Operator.GE if query.descending else Operator.LE
    return Comparison(query.order_by, operator, (kth_value,))


# --------------------------------------------------------------------------- lowering
def lower_top_k(system: "BaseSystem", query: TopKQuery, path: str) -> Lowering:
    """A ranked top-k as one unranked scan (text payloads) or as no scan at all (columnar).

    The first block's payload decides — an upload never mixes layouts.  Text blocks (stock
    Hadoop) have no block-wise path: every block is scanned as one ordinary job and the
    finish step ranks and projects its rows, which is exactly the baseline the benchmark
    compares early termination against (``TOPK_BLOCKS_READ`` counts them all).  Columnar
    blocks go to :func:`_ranked_probe`, the whole finish step of a scan-less lowering.
    ``EXPLAIN`` renders the ranking and the blocks' zone-range bounds above the plan of the
    unranked scan: its job's, or, with no job, the probe's blocks (planned by the probe's base
    query before a run, the ones it probed after).  The probe reads the bounds, so a columnar
    lowering looks them up once, up front; a text one looks them up only when it renders.
    """
    block_ids = system.hdfs.namenode.file_blocks(path)
    columnar = not block_ids or isinstance(system.hdfs.any_replica(block_ids[0]).payload, HailBlock)

    def block_bounds() -> dict:
        return {bid: _block_bound(system, bid, query.order_by) for bid in block_ids}

    bounds = block_bounds() if columnar else None

    def explain(plans) -> str:
        """The ranking and the zone-range bounds above the unranked scan's plan."""
        read = bounds if columnar else block_bounds()
        bounded = sum(1 for bound in read.values() if bound is not None)
        header = [
            f"TopK {query.name!r}: {query.description}",
            f"  order by: {query.order_by} {'DESC' if query.descending else 'ASC'}, k={query.k}",
            f"  zone-range bounds: {bounded}/{len(block_ids)} blocks "
            f"({'early termination possible' if bounded else 'full scan-and-sort'})",
            f"  threshold pushdown: {query.order_by} "
            f"{'>=' if query.descending else '<='} <running k-th value>",
        ]
        (plan,) = plans or [system.plan_query(query.scan_query(), path)]
        return "\n".join(header + [indent(plan.explain(), "  ")])

    if columnar:
        return Lowering(
            [], lambda _jobs, _scans_s: _ranked_probe(system, query, path, bounds), explain
        )

    def finish(jobs, _scans_s) -> tuple:
        """Rank the full scan's rows client-side and project the best ``k``: the answer's job is
        a copy of the scan's with the answer as its output (the scan's own is left as it ran)."""
        (job,) = jobs
        schema = system.schema_of(path)
        top = job.records
        _trim_top(top, schema.index_of(query.order_by), query.k, query.descending)
        records = _project(top, schema, query.projection)
        job.counters.increment(Counters.TOPK_BLOCKS_READ, len(block_ids))
        return records, replace(job, keys=None, values=list(records))

    return Lowering([(query.scan_query(), path)], finish, explain)


def _ranked_probe(system: "BaseSystem", query: TopKQuery, path: str, bounds: dict) -> tuple:
    """Best-first block visits with zone-range early termination — a driver, not a job.

    This is the one operator step that runs blocks itself instead of handing scans to the
    MapReduce runner: each probe's result tightens the running ``k``-th threshold, which
    decides whether the *next* block is read at all and which clause is pushed into it, so
    the visits cannot be declared up front as the splits of a job.  Every block is executed
    through the system's own planner/executor pair (sorted replicas, PAX projection and zone
    maps all apply per block), visited in the order of its zone-range ``bounds``.  The reported
    job is what a sequential driver costs: the job startup plus the sum of the per-block probe
    seconds — one wave, no reduce phase.  Its ``plan`` frames the block plans the probe
    executed, in visit order; a block the threshold skipped unread has none.
    """
    schema = system.schema_of(path)
    order_index = schema.index_of(query.order_by)

    planner = system._planner()
    # Bound once: a block probed without a threshold clause reuses it as is.
    base_query = BoundQuery.bind(HailQuery(filter=query.predicate, projection=None), schema)
    base_clauses = tuple(query.predicate.clauses) if query.predicate is not None else ()
    counters = Counters()
    probed = []
    top: list[tuple] = []
    seconds = slowest = 0.0
    blocks_read = 0
    blocks_skipped = 0

    for block_id in _visit_order(bounds, query.descending):
        probe = base_query
        if len(top) >= query.k:
            threshold = _threshold_clause(query, top[query.k - 1][order_index])
            bound = bounds[block_id]
            if bound is not None and ranges_disjoint(*threshold.value_range(), *bound):
                blocks_skipped += 1
                continue
            probe = BoundQuery.bind(
                HailQuery(filter=Predicate(base_clauses + (threshold,)), projection=None), schema
            )
        # adaptive=None: top-k probes must not stage index builds as a side effect.
        plan = planner.plan_block(block_id, probe)
        if plan.datanode_id < 0:  # the probe runs on the replica's node: there is none
            raise ReplicaNotFoundError(f"no alive replica of block {block_id}")
        executor = VectorizedExecutor(
            system.hdfs, system.cost, node_id=plan.datanode_id, zone_maps=planner.zone_maps
        )
        result = executor.execute(plan, probe)
        probed.append(result.plan)
        seconds += result.seconds
        slowest = max(slowest, result.seconds)
        counters.increment(Counters.BYTES_READ, result.bytes_read)
        if result.zone_map_skipped:
            blocks_skipped += 1
            continue
        blocks_read += 1
        top.extend(result.projected.rows())
        _trim_top(top, order_index, query.k, query.descending)

    counters.increment(Counters.TOPK_BLOCKS_READ, blocks_read)
    counters.increment(Counters.TOPK_BLOCKS_SKIPPED, blocks_skipped)
    records = _project(top, schema, query.projection)
    return records, JobResult(
        job_name=f"{system.name.lower()}-{query.name}[topk]",
        keys=None,
        values=list(records),
        runtime_s=system.cost.job_startup() + seconds,
        ideal_time_s=seconds,
        num_map_tasks=blocks_read,
        num_waves=1,
        avg_record_reader_s=seconds / blocks_read if blocks_read else 0.0,
        max_record_reader_s=slowest,
        total_record_reader_s=seconds,
        map_phase_s=seconds,
        reduce_phase_s=0.0,
        split_phase_s=0.0,
        counters=counters,
        plan=QueryPlan(path, base_query, probed),
    )


def _project(
    rows: list[tuple], schema, projection: Optional[tuple[str, ...]]
) -> list[tuple]:
    """Apply the output projection to full ranked rows (post-ranking, order preserved)."""
    if projection is None:
        return list(rows)
    positions = [schema.index_of(name) for name in projection]
    return [tuple(row[position] for position in positions) for row in rows]
