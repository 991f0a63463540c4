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

from dataclasses import dataclass
from textwrap import indent
from typing import TYPE_CHECKING, Any, Optional

from repro.hail.annotation import HailQuery
from repro.hail.predicate import Comparison, Operator, Predicate
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobResult, unkeyed

if TYPE_CHECKING:  # only for annotations: systems and workloads import the engine back
    from repro.systems.base import BaseSystem, Lowering
    from repro.workloads.query import Query


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
        Number of rows to return (``LIMIT``); must be >= 1.
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
        from repro.workloads.query import render_sql  # lazy: workloads imports us back

        if self.k < 1:
            raise ValueError(f"top-k needs k >= 1, got {self.k}")
        if not self.description:
            base = render_sql(self.predicate, self.projection)
            direction = " DESC" if self.descending else ""
            object.__setattr__(
                self,
                "description",
                f"{base} ORDER BY {self.order_by}{direction} LIMIT {self.k}",
            )

    def scan_query(self) -> "Query":
        """The unranked full scan used by the text fallback (full rows; ranked client-side)."""
        from repro.workloads.query import Query  # lazy: workloads imports us back

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


def _can_skip(
    bound: Optional[tuple], kth_value: Any, descending: bool
) -> bool:
    """True when the block's entire zone range is strictly worse than the ``k``-th value.

    Ties are never skipped (a tied row may displace a held row under the ``repr``
    tie-break), and uncomparable types fail closed to "read the block".
    """
    if bound is None:
        return False
    low, high = bound
    try:
        if descending:
            return high < kth_value
        return low > kth_value
    except TypeError:
        return False


def _threshold_annotation(query: TopKQuery, kth_value: Any) -> HailQuery:
    """The per-block scan annotation once ``k`` rows are held: base predicate plus a
    ``order_by >= kth`` (descending) / ``<= kth`` (ascending) clause.

    The extra clause lets a replica sorted on ``order_by`` index-narrow the candidate window
    and lets per-partition zone maps prune inside the block; it is inclusive, so boundary
    ties still surface and the ``repr`` tie-break stays correct.
    """
    operator = Operator.GE if query.descending else Operator.LE
    clauses = tuple(query.predicate.clauses) if query.predicate is not None else ()
    clauses = clauses + (Comparison(query.order_by, operator, (kth_value,)),)
    return HailQuery(filter=Predicate(clauses), projection=None)


# --------------------------------------------------------------------------- lowering
def lower_top_k(system: "BaseSystem", query: TopKQuery, path: str) -> "Lowering":
    """A ranked top-k as one unranked scan (text payloads) or as no scan at all (columnar).

    The first block's payload decides — an upload never mixes layouts.  Text blocks (stock
    Hadoop) have no block-wise path: every block is scanned as one ordinary job and the
    finish step ranks and projects its rows, which is exactly the baseline the benchmark
    compares early termination against (``TOPK_BLOCKS_READ`` counts them all).  Columnar
    blocks go to :func:`_ranked_probe`, the whole finish step of a scan-less lowering.
    """
    from repro.hail.hail_block import HailBlock  # local: hail_block imports our kernels
    from repro.systems.base import Lowering

    block_ids = system.hdfs.namenode.file_blocks(path)
    if not block_ids or isinstance(system.hdfs.any_replica(block_ids[0]).payload, HailBlock):
        return Lowering([], lambda _jobs, _scans_s: _ranked_probe(system, query, path))

    def finish(jobs, _scans_s) -> tuple:
        """Rank the full scan's rows client-side and project the best ``k``."""
        (job,) = jobs
        schema = system.schema_of(path)
        top = job.records
        _trim_top(top, schema.index_of(query.order_by), query.k, query.descending)
        records = _project(top, schema, query.projection)
        job.counters.increment(Counters.TOPK_BLOCKS_READ, len(block_ids))
        job.output = unkeyed(records)
        return records, job

    return Lowering([(query.scan_query(), path)], finish)


def _ranked_probe(system: "BaseSystem", query: TopKQuery, path: str) -> tuple:
    """Best-first block visits with zone-range early termination — a driver, not a job.

    This is the one operator step that runs blocks itself instead of handing scans to the
    MapReduce runner: each probe's result tightens the running ``k``-th threshold, which
    decides whether the *next* block is read at all and which clause is pushed into it, so
    the visits cannot be declared up front as the splits of a job.  Every block is executed
    through the system's own planner/executor pair (sorted replicas, PAX projection and zone
    maps all apply per block).  The reported job is what a sequential driver costs: the job
    startup plus the sum of the per-block probe seconds — one wave, no reduce phase.
    """
    from repro.engine.executor import VectorizedExecutor

    schema = system.schema_of(path)
    order_index = schema.index_of(query.order_by)
    block_ids = system.hdfs.namenode.file_blocks(path)
    bounds = {bid: _block_bound(system, bid, query.order_by) for bid in block_ids}

    planner = system._planner()
    base_annotation = HailQuery(filter=query.predicate, projection=None)
    counters = Counters()
    top: list[tuple] = []
    seconds = slowest = 0.0
    blocks_read = 0
    blocks_skipped = 0

    for block_id in _visit_order(bounds, query.descending):
        threshold = top[query.k - 1][order_index] if len(top) >= query.k else None
        if threshold is not None and _can_skip(bounds[block_id], threshold, query.descending):
            blocks_skipped += 1
            continue
        annotation = (
            _threshold_annotation(query, threshold)
            if threshold is not None
            else base_annotation
        )
        # adaptive=None: top-k probes must not stage index builds as a side effect.
        plan = planner.plan_block(block_id, annotation=annotation)
        executor = VectorizedExecutor(
            system.hdfs, system.cost, node_id=plan.datanode_id, zone_maps=planner.zone_maps
        )
        result = executor.execute(plan, annotation)
        seconds += result.seconds
        slowest = max(slowest, result.seconds)
        counters.increment(Counters.BYTES_READ, result.bytes_read)
        if result.zone_map_skipped:
            blocks_skipped += 1
            continue
        blocks_read += 1
        top.extend(result.projected)
        _trim_top(top, order_index, query.k, query.descending)

    counters.increment(Counters.TOPK_BLOCKS_READ, blocks_read)
    counters.increment(Counters.TOPK_BLOCKS_SKIPPED, blocks_skipped)
    records = _project(top, schema, query.projection)
    return records, JobResult(
        job_name=f"{system.name.lower()}-{query.name}[topk]",
        output=unkeyed(records),
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
    )


def _project(
    rows: list[tuple], schema, projection: Optional[tuple[str, ...]]
) -> list[tuple]:
    """Apply the output projection to full ranked rows (post-ranking, order preserved)."""
    if projection is None:
        return list(rows)
    positions = [schema.index_of(name) for name in projection]
    return [tuple(row[position] for position in positions) for row in rows]


def explain_top_k(system: "BaseSystem", query: TopKQuery, path: str) -> str:
    """``EXPLAIN`` rendering: ranking spec, per-block bound coverage, and the scan plan."""
    block_ids = system.hdfs.namenode.file_blocks(path)
    bounded = sum(
        1 for bid in block_ids if _block_bound(system, bid, query.order_by) is not None
    )
    header = [
        f"TopK {query.name!r}: {query.description}",
        f"  order by: {query.order_by} {'DESC' if query.descending else 'ASC'}, k={query.k}",
        f"  zone-range bounds: {bounded}/{len(block_ids)} blocks "
        f"({'early termination possible' if bounded else 'full scan-and-sort'})",
        f"  threshold pushdown: {query.order_by} "
        f"{'>=' if query.descending else '<='} <running k-th value>",
    ]
    plan = system.plan_query(query.scan_query(), path).explain()
    return "\n".join(header + [indent(plan, "  ")])
