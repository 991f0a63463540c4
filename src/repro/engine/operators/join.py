"""Equi-joins over two uploaded datasets: co-partitioned merge join or shuffle hash join.

HAIL's per-replica clustered indexes give the planner a free co-partitioning signal: when
*every* block of *both* sides has an alive replica indexed (and therefore sorted) on the join
key, the two scans' outputs can be merged map-side without a shuffle — the paper's layout
makes the classic sort-merge join's expensive phase a property of the storage.  When the
signal is absent (stock Hadoop, a missing index, a dead replica), the operator falls back to
the textbook shuffle hash join.  Either way each side scan emits a join-key column beside a
value column — the left rows, the right rests — read from its column batches, and one collector
(:class:`_JoinedGroups`) takes them: the hash strategy hands both scans' columns to the real
shuffle (:func:`repro.mapreduce.shuffle.run_reduce_phase`), which groups them, pays the network
cost the merge join avoids and calls the collector once per key group; the merge strategy hands
the collector both sides' columns at once.  Either way the right rests are ranked once per
join, and the strategies differ only in that cost accounting.  The chosen strategy is visible
in ``explain()`` and in the ``JOIN_MERGE_JOINS``/``JOIN_HASH_JOINS`` counters; the
collector's one global emission gives both bit-identical output rows ``(key, *left non-key
columns, *right non-key columns)`` in canonical order — an order it builds from sorted inputs
instead of sorting the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, groupby, repeat
from textwrap import indent
from typing import TYPE_CHECKING, Optional

from repro.layouts.pax import ColumnBatch
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Emitted, JobConf, JobResult, Lowering, key_column
from repro.mapreduce.shuffle import key_runs, numbered, run_reduce_phase
from repro.query.predicate import Query, _clause_sql

if TYPE_CHECKING:  # annotations only: repro.systems.base imports the operators
    from repro.systems.base import BaseSystem

#: The two join strategies (``JoinQuery.strategy=None`` lets the planner choose).
STRATEGIES = ("merge", "hash")
#: The ``JobResult`` fields a join's own job adds up over its two scan jobs.
_SUMMED = (
    "ideal_time_s", "num_map_tasks", "num_waves", "total_record_reader_s", "map_phase_s",
    "split_phase_s", "rescheduled_tasks",
)



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
        Per-side selection/projection scans (compiled :class:`~repro.query.predicate.Query`
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

    def side_query(self, side: str, schema) -> Query:
        """The effective scan of one side: its query with the join key leading the projection."""
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
    return all(
        namenode.hosts_with_index(block_id, query.key, alive_only=True)
        for path in (query.left_path, query.right_path)
        for block_id in namenode.file_blocks(path)
    )


def choose_strategy(system: "BaseSystem", query: JoinQuery) -> str:
    """The strategy the join will execute with (honouring a forced ``query.strategy``)."""
    return _strategy(query, co_partitioned(system, query))


def _strategy(query: JoinQuery, eligible: bool) -> str:
    """The forced strategy or the planner's choice, for sides that are (or are not)
    merge-eligible; a forced merge on sides that are not raises ``ValueError``."""
    if query.strategy == "merge" and not eligible:
        raise ValueError(
            f"join {query.name!r}: strategy='merge' forced but the sides are not "
            f"co-partitioned on {query.key!r} (a block lacks an alive indexed replica)"
        )
    return query.strategy or ("merge" if eligible else "hash")


# --------------------------------------------------------------------------- lowering
def lower_join(system: "BaseSystem", query: JoinQuery, path: str) -> Lowering:
    """An equi-join as two scans — one per side — finished by a merge or a shuffle-hash step.

    The strategy is chosen here, from one walk of ``Dir_rep`` as it stands before either scan
    runs, and ``EXPLAIN`` renders it with its reason above both sides' plans; a forced merge on
    sides that are not co-partitioned is the lowering's refusal.  ``path`` must match
    ``query.left_path`` (a query resolves against one path; the right side is carried by the
    query itself).  The finish step's :class:`JobResult` adds the two scan jobs up and books
    the join step's seconds as the reduce phase.
    """
    if path != query.left_path:
        raise ValueError(
            f"join {query.name!r} was compiled for left path {query.left_path!r}, "
            f"got {path!r}"
        )
    eligible = co_partitioned(system, query)
    try:
        strategy = _strategy(query, eligible)
    except ValueError as error:
        refusal = str(error)
        return Lowering(
            [], None, lambda _plans: f"Join {query.name!r}: UNPLANNABLE — {refusal}", refusal
        )

    def finish(jobs, scans_s: float) -> tuple:
        """Join the two sides' key and value columns; add their jobs up into the join's own
        ``JobResult``."""
        left, right = jobs
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

        summed = {field: getattr(left, field) + getattr(right, field) for field in _SUMMED}
        num_map_tasks, reader_s = summed["num_map_tasks"], summed["total_record_reader_s"]
        deadlines = [job.deadline_met for job in jobs if job.deadline_met is not None]
        return records, JobResult(
            job_name=f"{system.name.lower()}-{query.name}[{strategy}]",
            keys=None,
            values=list(records),
            runtime_s=scans_s + join_s,
            avg_record_reader_s=reader_s / num_map_tasks if num_map_tasks else 0.0,
            max_record_reader_s=max(left.max_record_reader_s, right.max_record_reader_s),
            reduce_phase_s=join_s,
            counters=counters,
            task_results=left.task_results + right.task_results,
            failure_node=left.failure_node,
            deadline_met=all(deadlines) if deadlines else None,
            **summed,
        )

    def explain(plans) -> str:
        """The strategy and its reason above both sides' plans, left then right."""
        if strategy == "merge":
            reason = (
                f"co-partitioned: every block of both sides has an alive replica "
                f"indexed on {query.key!r} (no shuffle)"
            )
        elif eligible:
            reason = "forced by strategy='hash' (sides are merge-eligible)"
        else:
            reason = (
                f"fallback: at least one block lacks an alive replica indexed on "
                f"{query.key!r} (both sides' keyed pairs shuffle to "
                f"{max(1, len(system.cluster.alive_nodes))} reducers, which group them)"
            )
        lines = [f"Join {query.name!r}: {query.description}", f"  strategy: {strategy} ({reason})"]
        for side, plan in zip(("left", "right"), plans):
            lines += [f"  {side} side:", indent(plan.explain(), "    ")]
        return "\n".join(lines)

    # Each side scan hands its column batches to a keying ``emit``: the join key leads the side
    # query's projection, so a batch's first column is its key column.
    scans = [
        (query.side_query(side, system.schema_of(side_path)), side_path, keying)
        for side, side_path, keying in (
            ("left", query.left_path, _left_columns),
            ("right", query.right_path, _right_columns),
        )
    ]
    return Lowering(scans, finish, explain)


def _left_columns(batch: ColumnBatch) -> tuple:
    """A left scan's batch as its join-key column beside its rows."""
    return batch.columns[0], batch.rows()


def _right_columns(batch: ColumnBatch) -> tuple:
    """A right scan's batch as its join-key column beside its rests (``row[1:]``): the left row
    brings the key along."""
    key, *rest = batch.columns
    return key, ColumnBatch((rest, batch.size)).rows()


class _JoinedGroups:
    """The join's output rows, collected key group by key group, emitted once in canonical order.

    The collector keeps two flat lists: every left row that has a match, and beside each the
    right rests of its key — one tuple per key, sorted by ``repr`` and shared by that key's
    left rows.  A merge join hands it both sides' key and value columns at once
    (:meth:`extend`).  A hash join calls it like a reducer over each shuffled group, ``(key,
    left rows, right rests)``: the calls only gather the groups into flat lists, which
    :meth:`count` and :meth:`rows` first collect.  Either way :func:`_ranked_rests` ranks the
    right rests with one sort per join, not one per key.

    :meth:`rows` is exactly ``sorted(all joined rows, key=repr)``, for one ``repr`` per input
    row instead of one per output row and no sort of the output, because a joined row prints
    as its left row's text (less the closing parenthesis) followed by its right rest's: rows
    order by left text first and right text second.  So one sort of the left rows by text,
    each followed by its key's sorted rests, is the order — except that copies of one left row
    (equal *text*: ``0.0 == -0.0`` are not copies) tie, and then the right text decides:
    ``L, L x R1, R2`` is ``LR1, LR1, LR2, LR2``.
    """

    def __init__(self) -> None:
        #: Left rows with a match, in arrival order.
        self.lefts: list[tuple] = []
        #: Per left row, its key's right rests sorted by ``repr`` (one tuple per key).
        self.rests: list[tuple] = []
        #: The key groups called in and not yet collected, flat: their left rows, each group's
        #: number of left rows, and their right rests beside each one's group number.
        self._called: tuple[list, list, list, list] = ([], [], [], [])

    def __call__(self, _key, lefts: list[tuple], rights: list[tuple]) -> None:
        """Gather one key group; emit nothing (the hash join counts :attr:`count` itself)."""
        if lefts and rights:
            left_rows, left_counts, groups, right_rests = self._called
            left_rows += lefts
            left_counts.append(len(lefts))
            groups += repeat(len(left_counts), len(rights))
            right_rests += rights

    def _collect_called(self) -> None:
        """Collect the groups gathered by calls, their right rests ranked by one sort, not one
        per group.  Every called group matches, so its left rows need no lookup."""
        if self._called[0]:
            (left_rows, left_counts, groups, rests), self._called = self._called, ([], [], [], [])
            ranked = _ranked_rests(groups, rests).values()  # in group order: first seen
            self.lefts += left_rows
            self.rests += chain.from_iterable(map(repeat, ranked, left_counts))

    def extend(self, left_keys, lefts: list[tuple], right_keys, rests: list[tuple]) -> None:
        """Collect both sides' columns: join keys beside left rows, join keys beside right rests."""
        matched = list(map(_ranked_rests(right_keys, rests).get, left_keys))
        self.lefts += compress(lefts, matched)
        self.rests += filter(None, matched)

    @property
    def count(self) -> int:
        """How many joined rows :meth:`rows` will emit."""
        self._collect_called()
        return sum(map(len, self.rests))

    def rows(self) -> list[tuple]:
        """Every joined row so far, in canonical order."""
        self._collect_called()
        lefts, rests = self.lefts, self.rests
        texts = list(map(repr, lefts))
        order = sorted(range(len(texts)), key=texts.__getitem__)
        if len(set(texts)) == len(texts):
            return [lefts[i] + rest for i in order for rest in rests[i]]
        # Copies: a run of equal-text left rows emits rest-major.  The run also shares its
        # rests tuple, so that rows printing alike but matched apart (NaN keys) never mix.
        runs = (list(run) for _, run in groupby(order, key=lambda i: (texts[i], id(rests[i]))))
        return [lefts[i] + rest for run in runs for rest in rests[run[0]] for i in run]


def _ranked_rests(keys: list, rests: list[tuple]) -> dict:
    """``{key: its rests sorted by repr, as one tuple}`` for a key column beside a rest column,
    keys in first-seen order: one sort of all the rests by text, regrouped stably by key."""
    texts = list(map(repr, rests))
    order = sorted(range(len(rests)), key=texts.__getitem__)
    numbers = numbered(keys)
    starts = key_runs(keys, numbers, order)
    ranked = tuple(map(rests.__getitem__, order))
    return dict(zip(numbers, map(ranked.__getitem__, map(slice, starts, starts[1:]))))


def _merge_join(
    system: "BaseSystem", left: Emitted, right: Emitted, joined: _JoinedGroups
) -> float:
    """Map-side merge join: both sides' key and value columns (each a scan job's) straight into
    ``joined``, charged as a CPU-only merge."""
    lefts, rests = left.values, right.values
    # A side with no block has no key column: its job's keys are ``None``, as if null-keyed.
    left_keys, right_keys = key_column(left.keys, len(lefts)), key_column(right.keys, len(rests))
    joined.extend(left_keys, lefts, right_keys, rests)
    nodes = system.cluster.alive_nodes
    if not nodes:
        return 0.0
    cost = system.cost
    merged_bytes = cost.scale_bytes((len(lefts) + len(rests)) * 64.0)
    return cost.task_overhead() + cost.cpu(nodes[0]).evaluate_predicate(merged_bytes)


def _hash_join(
    system: "BaseSystem",
    query: JoinQuery,
    left: Emitted,
    right: Emitted,
    counters: Counters,
    joined: _JoinedGroups,
) -> float:
    """Shuffle hash join: both sides' columns go through the real shuffle, which calls
    ``joined`` as the reducer of every key group; the joined rows are booked as the reduce
    output."""
    shuffle_conf = JobConf(
        name=f"{query.name}-shuffle",
        input_path=query.left_path,
        reducer=joined,
        num_reduce_tasks=max(1, len(system.cluster.alive_nodes)),
    )
    phase = run_reduce_phase(left, shuffle_conf, system.cluster, system.cost, counters, right)
    joined_rows = joined.count
    if joined_rows:
        counters.increment(Counters.REDUCE_OUTPUT_RECORDS, joined_rows)
    return phase.duration_s
