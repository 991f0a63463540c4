"""Equi-joins over two uploaded datasets: co-partitioned merge join or shuffle hash join.

HAIL's per-replica clustered indexes give the planner a free co-partitioning signal: when
*every* block of *both* sides has an alive replica indexed (and therefore sorted) on the join
key, the two scans' outputs can be merged map-side without a shuffle — the paper's layout
makes the classic sort-merge join's expensive phase a property of the storage.  When the
signal is absent (stock Hadoop, a missing index, a dead replica), the operator falls back to
the textbook shuffle hash join, routing tagged ``(key, (side, row))`` pairs through the real
shuffle machinery (:func:`repro.mapreduce.shuffle.run_reduce_phase`) so the fallback pays the
network cost the merge join avoids.  The chosen strategy is visible in ``explain()`` and in
the ``JOIN_MERGE_JOINS``/``JOIN_HASH_JOINS`` counters; both strategies produce bit-identical
output rows ``(key, *left non-key columns, *right non-key columns)`` in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from textwrap import indent
from typing import TYPE_CHECKING, Optional

from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.shuffle import run_reduce_phase

if TYPE_CHECKING:  # only for annotations: systems and workloads import the engine back
    from repro.systems.base import BaseSystem, Lowering
    from repro.workloads.query import Query

#: The two join strategies (``JoinQuery.strategy=None`` lets the planner choose).
STRATEGIES = ("merge", "hash")


@dataclass(frozen=True)
class JoinQuery:
    """A compiled equi-join between two uploaded datasets.

    Output rows are ``(key value, *left non-key columns, *right non-key columns)`` with each
    side's columns in its declared projection order, canonically sorted.  ``strategy`` forces
    a physical strategy (``"hash"`` is always legal; forcing ``"merge"`` on sides that are
    not co-partitioned raises), ``None`` lets the planner decide from ``Dir_rep``.

    Attributes
    ----------
    name:
        Short identifier used in reports.
    key:
        The equi-join attribute (must exist in both schemas).
    left_path / right_path:
        The two uploaded datasets.
    left / right:
        Per-side selection/projection scans (compiled :class:`~repro.workloads.query.Query`
        objects; their projections need not include the key — it is added internally).
    strategy:
        ``None`` (planner-chosen), ``"merge"`` or ``"hash"``.
    description:
        SQL label; rendered from the compiled form when omitted.
    """

    name: str
    key: str
    left_path: str
    right_path: str
    left: Query
    right: Query
    strategy: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown join strategy {self.strategy!r}; use one of {STRATEGIES} or None"
            )
        if not self.description:
            object.__setattr__(self, "description", self._render_sql())

    def _render_sql(self) -> str:
        from repro.workloads.query import _clause_sql  # lazy: workloads imports us back

        columns = [self.key]
        for side in (self.left, self.right):
            for column in side.projection or ():
                if column != self.key:
                    columns.append(column)
        sql = (
            f"SELECT {', '.join(columns) if columns else '*'} "
            f"FROM '{self.left_path}' JOIN '{self.right_path}' ON {self.key}"
        )
        clauses = []
        for side in (self.left, self.right):
            if side.predicate is not None:
                clauses.extend(_clause_sql(clause) for clause in side.predicate.clauses)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        return sql

    def side_query(self, side: str, schema) -> "Query":
        """The effective scan of one side: its query with the join key leading the projection."""
        from repro.workloads.query import Query  # lazy: workloads imports us back

        base = self.left if side == "left" else self.right
        declared = base.projection if base.projection is not None else tuple(schema.field_names)
        projection = (self.key,) + tuple(c for c in declared if c != self.key)
        return Query(
            name=f"{self.name}-{side}", predicate=base.predicate, projection=projection
        )


# --------------------------------------------------------------------------- planning
def co_partitioned(system: "BaseSystem", query: JoinQuery) -> bool:
    """Can both sides be merged map-side: every block of both paths has an alive replica
    indexed (sorted) on the join key?  A pure ``Dir_rep`` metadata check, like the planner."""
    namenode = system.hdfs.namenode
    for path in (query.left_path, query.right_path):
        for block_id in namenode.file_blocks(path):
            if not namenode.hosts_with_index(block_id, query.key, alive_only=True):
                return False
    return True


def choose_strategy(system: "BaseSystem", query: JoinQuery) -> str:
    """The strategy the join will execute with (honouring a forced ``query.strategy``)."""
    eligible = co_partitioned(system, query)
    if query.strategy == "merge":
        if not eligible:
            raise ValueError(
                f"join {query.name!r}: strategy='merge' forced but the sides are not "
                f"co-partitioned on {query.key!r} (a block lacks an alive indexed replica)"
            )
        return "merge"
    if query.strategy == "hash":
        return "hash"
    return "merge" if eligible else "hash"


# --------------------------------------------------------------------------- lowering
def lower_join(system: "BaseSystem", query: JoinQuery, path: str) -> "Lowering":
    """An equi-join as two scans — one per side — finished by a merge or a shuffle-hash step.

    The strategy is chosen here, from ``Dir_rep`` as it stands before either scan runs.
    ``path`` must match ``query.left_path`` (a query resolves against one path; the right
    side is carried by the query itself).  The finish step's :class:`JobResult` adds the two
    scan jobs up and books the join step's seconds as the reduce phase.
    """
    from repro.systems.base import Lowering

    if path != query.left_path:
        raise ValueError(
            f"join {query.name!r} was compiled for left path {query.left_path!r}, "
            f"got {path!r}"
        )
    strategy = choose_strategy(system, query)

    def finish(jobs, scans_s: float) -> tuple:
        """Join the two sides' rows and add their jobs up into the join's own ``JobResult``."""
        left_rows, right_rows = (job.records for job in jobs)
        counters = Counters()
        for job in jobs:
            counters.merge(job.counters)
        if strategy == "merge":
            records, join_s = _merge_join(system, left_rows, right_rows)
            counters.increment(Counters.JOIN_MERGE_JOINS)
        else:
            records, join_s = _hash_join(system, query, left_rows, right_rows, counters)
            counters.increment(Counters.JOIN_HASH_JOINS)
        counters.increment(Counters.JOIN_OUTPUT_RECORDS, len(records))
        records = sorted(records, key=repr)

        def total(field: str):
            """One ``JobResult`` field summed over both scan jobs."""
            return sum(getattr(job, field) for job in jobs)

        num_map_tasks, reader_s = total("num_map_tasks"), total("total_record_reader_s")
        deadlines = [job.deadline_met for job in jobs if job.deadline_met is not None]
        return records, JobResult(
            job_name=f"{system.name.lower()}-{query.name}[{strategy}]",
            output=[(None, row) for row in records],
            runtime_s=scans_s + join_s,
            ideal_time_s=total("ideal_time_s"),
            num_map_tasks=num_map_tasks,
            num_waves=total("num_waves"),
            avg_record_reader_s=reader_s / num_map_tasks if num_map_tasks else 0.0,
            max_record_reader_s=max(job.max_record_reader_s for job in jobs),
            total_record_reader_s=reader_s,
            map_phase_s=total("map_phase_s"),
            reduce_phase_s=join_s,
            split_phase_s=total("split_phase_s"),
            counters=counters,
            task_results=[attempt for job in jobs for attempt in job.task_results],
            failure_node=jobs[0].failure_node,
            rescheduled_tasks=total("rescheduled_tasks"),
            deadline_met=all(deadlines) if deadlines else None,
        )

    return Lowering(_side_scans(system, query), finish)


def _side_scans(system: "BaseSystem", query: JoinQuery) -> list[tuple]:
    """The join's two scans, left then right, as ``(side query, path)`` pairs."""
    return [
        (query.side_query(side, system.schema_of(side_path)), side_path)
        for side, side_path in (("left", query.left_path), ("right", query.right_path))
    ]


def _join_rows(left_rows: list[tuple], right_rows: list[tuple]) -> list[tuple]:
    """The joined rows (side scans emit the key first, so ``row[0]`` is the join key)."""
    by_key: dict = {}
    for row in left_rows:
        by_key.setdefault(row[0], []).append(row[1:])
    joined: list[tuple] = []
    for row in right_rows:
        for left_rest in by_key.get(row[0], ()):
            joined.append((row[0],) + left_rest + row[1:])
    return joined


def _merge_join(
    system: "BaseSystem", left_rows: list[tuple], right_rows: list[tuple]
) -> tuple[list[tuple], float]:
    """Map-side merge join: no shuffle, CPU-only merge of the two sorted streams."""
    rows = _join_rows(left_rows, right_rows)
    nodes = system.cluster.alive_nodes
    if not nodes:
        return rows, 0.0
    cost = system.cost
    merged_bytes = cost.scale_bytes((len(left_rows) + len(right_rows)) * 64.0)
    seconds = cost.task_overhead() + cost.cpu(nodes[0]).evaluate_predicate(merged_bytes)
    return rows, seconds


def _hash_join(
    system: "BaseSystem",
    query: JoinQuery,
    left_rows: list[tuple],
    right_rows: list[tuple],
    counters: Counters,
) -> tuple[list[tuple], float]:
    """Shuffle hash join: tagged pairs travel through the real shuffle/reduce machinery."""
    tagged = [(row[0], ("L", row[1:])) for row in left_rows]
    tagged += [(row[0], ("R", row[1:])) for row in right_rows]

    def join_reducer(key, values):
        lefts = [rest for side, rest in values if side == "L"]
        rights = [rest for side, rest in values if side == "R"]
        return [
            (key, (key,) + left_rest + right_rest)
            for left_rest in lefts
            for right_rest in rights
        ]

    shuffle_conf = JobConf(
        name=f"{query.name}-shuffle",
        input_path=query.left_path,
        reducer=join_reducer,
        num_reduce_tasks=max(1, len(system.cluster.alive_nodes)),
    )
    result = run_reduce_phase(tagged, shuffle_conf, system.cluster, system.cost, counters)
    return [row for _, row in result.output], result.duration_s


def explain_join(system: "BaseSystem", query: JoinQuery, path: str) -> str:
    """``EXPLAIN`` rendering: chosen strategy, the reason, and both sides' physical plans."""
    try:
        strategy = choose_strategy(system, query)
    except ValueError as error:
        return f"Join {query.name!r}: UNPLANNABLE — {error}"
    if strategy == "merge":
        reason = (
            f"co-partitioned: every block of both sides has an alive replica "
            f"indexed on {query.key!r} (no shuffle)"
        )
    elif co_partitioned(system, query):
        reason = "forced by strategy='hash' (sides are merge-eligible)"
    else:
        reason = (
            f"fallback: at least one block lacks an alive replica indexed on "
            f"{query.key!r} (tagged pairs shuffle to {max(1, len(system.cluster.alive_nodes))} "
            "reducers)"
        )
    lines = [f"Join {query.name!r}: {query.description}", f"  strategy: {strategy} ({reason})"]
    for side, (scan, side_path) in zip(("left", "right"), _side_scans(system, query)):
        lines += [f"  {side} side:", indent(system.plan_query(scan, side_path).explain(), "    ")]
    return "\n".join(lines)
