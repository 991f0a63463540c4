"""Equi-joins over two uploaded datasets: co-partitioned merge join or shuffle hash join.

HAIL's per-replica clustered indexes give the planner a free co-partitioning signal: when
*every* block of *both* sides has an alive replica indexed (and therefore sorted) on the join
key, the two scans' outputs can be merged map-side without a shuffle — the paper's layout
makes the classic sort-merge join's expensive phase a property of the storage.  When the
signal is absent (stock Hadoop, a missing index, a dead replica), the operator falls back to
the textbook shuffle hash join.  Either way the two side scans emit ``(join key, row)`` pairs
and the finish step works on key groups, never on single rows: the hash strategy hands both
scans' outputs to the real shuffle (:func:`repro.mapreduce.shuffle.run_reduce_phase`), which
cogroups them and pays the network cost the merge join avoids; the merge strategy runs the same
:func:`~repro.mapreduce.shuffle.cogroup` without the shuffle.  The chosen strategy is visible
in ``explain()`` and in the ``JOIN_MERGE_JOINS``/``JOIN_HASH_JOINS`` counters; both strategies
feed one emission (:class:`_JoinedGroups`) and so produce bit-identical output rows ``(key,
*left non-key columns, *right non-key columns)`` in canonical order — an order the emission
builds from sorted inputs instead of sorting the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from textwrap import indent
from typing import TYPE_CHECKING, Optional

from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf, JobResult, unkeyed
from repro.mapreduce.shuffle import cogroup, run_reduce_phase

if TYPE_CHECKING:  # only for annotations: systems and workloads import the engine back
    from repro.systems.base import BaseSystem, Lowering
    from repro.workloads.query import Query

#: The two join strategies (``JoinQuery.strategy=None`` lets the planner choose).
STRATEGIES = ("merge", "hash")

_FIRST, _SECOND, _REST = itemgetter(0), itemgetter(1), itemgetter(slice(1, None))


@dataclass(frozen=True)
class JoinQuery:
    """A compiled equi-join between two uploaded datasets.

    Output rows are ``(key value, *left non-key columns, *right non-key columns)`` with each
    side's columns in its declared projection order, canonically sorted.  The key value is the
    *left* row's: where equal keys print differently (``0.0 == -0.0``) every joined row
    carries its left row's spelling, whatever the strategy or system.  ``strategy`` forces
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
        """Join the two sides' keyed pairs; add their jobs up into the join's own ``JobResult``."""
        left, right = (job.output for job in jobs)
        counters = Counters()
        for job in jobs:
            counters.merge(job.counters)
        joined = _JoinedGroups()
        if strategy == "merge":
            join_s = _merge_join(system, left, right, joined)
            counters.increment(Counters.JOIN_MERGE_JOINS)
        else:
            join_s = _hash_join(system, query, left, right, counters, joined)
            counters.increment(Counters.JOIN_HASH_JOINS)
        records = joined.rows()
        counters.increment(Counters.JOIN_OUTPUT_RECORDS, len(records))

        def total(field: str):
            """One ``JobResult`` field summed over both scan jobs."""
            return sum(getattr(job, field) for job in jobs)

        num_map_tasks, reader_s = total("num_map_tasks"), total("total_record_reader_s")
        deadlines = [job.deadline_met for job in jobs if job.deadline_met is not None]
        return records, JobResult(
            job_name=f"{system.name.lower()}-{query.name}[{strategy}]",
            # Built after the rows, so that no pair keeps a fresh row tracked by the collector.
            output=unkeyed(records),
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
    """The join's two scans, left then right, as ``(side query, path, emit)`` triples.

    ``emit`` keys a scan's rows by the join key, which leads the side query's projection —
    one pair per row, whichever form of the map function runs.
    """
    return [
        (query.side_query(side, system.schema_of(side_path)), side_path, keying)
        for side, side_path, keying in (
            ("left", query.left_path, _left_pairs),
            ("right", query.right_path, _right_pairs),
        )
    ]


def _left_pairs(rows: list) -> list:
    """A left scan's rows as ``(join key, row)``, by the column."""
    return list(zip(map(_FIRST, rows), rows))


def _right_pairs(rows: list) -> list:
    """A right scan's rows as ``(join key, row[1:])``: the left row brings the key along."""
    return list(zip(map(_FIRST, rows), map(_REST, rows)))


class _JoinedGroups:
    """The join's output rows, taken one key group at a time, handed back in canonical order.

    An instance is called like a reducer over the cogrouped sides — ``(key, left rows, right
    rests)`` — and appends the group's joined rows ``left row + right rest`` as a chunk that is
    already in order; :meth:`rows` strings the chunks together.  The result is exactly
    ``sorted(all joined rows, key=repr)``, for one ``repr`` per input row instead of one per
    output row and no sort of the output, because a joined row prints as its left row's text
    (less the closing parenthesis) followed by its right rest's:

    - rows order by left text first and right text second, so a group whose left rows and
      right rests are each sorted by ``repr`` emits its product left-major — except that copies
      of one left row (equal *text*: ``0.0 == -0.0`` are not copies) tie, and then the right
      text decides: ``L, L x R1, R2`` is ``LR1, LR1, LR2, LR2``;
    - left rows printing the same key are contiguous in that order, so a group is one chunk
      placed by its first left text — unless its equal keys print differently (``0.0`` and
      ``-0.0`` are one group, other keys sort between them), when every run of copies becomes
      its own chunk.
    """

    def __init__(self) -> None:
        #: ``(text of the chunk's first left row, joined rows)``, in arrival order.
        self.chunks: list[tuple] = []

    def __call__(self, _key, lefts: list[tuple], rights: list[tuple]) -> list[tuple]:
        """Append one key group's joined rows; return them (the shuffle counts what it gets)."""
        if not lefts or not rights:
            return []
        if len(rights) > 1:
            rights = sorted(rights, key=repr)
        texts = list(map(repr, lefts))
        ranked = sorted(zip(texts, lefts), key=_FIRST)
        copies = len(rights) > 1 and len(set(texts)) < len(texts)
        if not copies and repr(ranked[0][1][0]) == repr(ranked[-1][1][0]):
            rows = [left + rest for _, left in ranked for rest in rights]
            self.chunks.append((ranked[0][0], rows))
            return rows
        emitted: list[tuple] = []
        for text, run in groupby(ranked, key=_FIRST):
            run = list(run)
            rows = [left + rest for rest in rights for _, left in run]
            self.chunks.append((text, rows))
            emitted += rows
        return emitted

    def rows(self) -> list[tuple]:
        """Every joined row so far, in canonical order."""
        self.chunks.sort(key=_FIRST)
        return list(chain.from_iterable(map(_SECOND, self.chunks)))


def _merge_join(
    system: "BaseSystem", left: list[tuple], right: list[tuple], joined: _JoinedGroups
) -> float:
    """Map-side merge join: the cogroup without the shuffle, charged as a CPU-only merge."""
    for lefts, rights in cogroup(left, right).values():
        joined(None, lefts, rights)
    nodes = system.cluster.alive_nodes
    if not nodes:
        return 0.0
    cost = system.cost
    merged_bytes = cost.scale_bytes((len(left) + len(right)) * 64.0)
    return cost.task_overhead() + cost.cpu(nodes[0]).evaluate_predicate(merged_bytes)


def _hash_join(
    system: "BaseSystem",
    query: JoinQuery,
    left: list[tuple],
    right: list[tuple],
    counters: Counters,
    joined: _JoinedGroups,
) -> float:
    """Shuffle hash join: both sides' pairs go through the real shuffle, which cogroups them
    and calls ``joined`` as the reducer of every key group."""
    shuffle_conf = JobConf(
        name=f"{query.name}-shuffle",
        input_path=query.left_path,
        reducer=joined,
        num_reduce_tasks=max(1, len(system.cluster.alive_nodes)),
    )
    phase = run_reduce_phase(left, shuffle_conf, system.cluster, system.cost, counters, right)
    return phase.duration_s


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
            f"{query.key!r} (both sides' keyed pairs shuffle to "
            f"{max(1, len(system.cluster.alive_nodes))} reducers, which cogroup them)"
        )
    lines = [f"Join {query.name!r}: {query.description}", f"  strategy: {strategy} ({reason})"]
    for side, (scan, side_path, _) in zip(("left", "right"), _side_scans(system, query)):
        lines += [f"  {side} side:", indent(system.plan_query(scan, side_path).explain(), "    ")]
    return "\n".join(lines)
