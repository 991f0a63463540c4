"""Expected answers, computed from the generated rows without the engine.

Selections evaluate the query's DSL expression row by row (``Expr.evaluate`` is the DSL's
reference semantics and touches neither planner nor executor); the operators are plain
python over the row lists.  Every function returns rows in the order :func:`canonical`
gives, which is also how the harness orders an engine result before comparing.
"""

from __future__ import annotations

import collections
from typing import Optional, Sequence


def canonical(records: Sequence[tuple]) -> list[tuple]:
    """Records in a deterministic order (columns are homogeneous, so tuples compare)."""
    return sorted(records)


def selection(rows: Sequence[tuple], schema, where, select: Optional[Sequence[str]]) -> list[tuple]:
    """``SELECT select FROM rows WHERE where`` (``where=None`` keeps every row)."""
    if select is None:
        positions = range(len(schema.fields))
    else:
        positions = [schema.index_of(name) for name in select]
    return canonical(
        [
            tuple(row[p] for p in positions)
            for row in rows
            if where is None or where.evaluate(row, schema)
        ]
    )


def group_count_sum(rows: Sequence[tuple], key: int, value: int) -> list[tuple]:
    """``SELECT key, count(*), sum(value) GROUP BY key`` over column positions."""
    groups: dict = collections.defaultdict(lambda: [0, 0])
    for row in rows:
        entry = groups[row[key]]
        entry[0] += 1
        entry[1] += row[value]
    return canonical([(k, count, total) for k, (count, total) in groups.items()])


def equi_join(
    left: Sequence[tuple], right: Sequence[tuple], key: int, columns: Sequence[int]
) -> list[tuple]:
    """Inner join on column ``key``; output ``(key, left columns..., right columns...)``."""
    by_key: dict = collections.defaultdict(list)
    for row in right:
        by_key[row[key]].append(tuple(row[c] for c in columns))
    return canonical(
        [
            (row[key],) + tuple(row[c] for c in columns) + match
            for row in left
            for match in by_key.get(row[key], ())
        ]
    )


def top_k(rows: Sequence[tuple], order: int, k: int) -> list[tuple]:
    """The ``k`` rows with the largest ``order`` value, ties by ``repr`` ascending.

    Rank order is part of a top-k answer, so this result is compared as is, not re-sorted.
    """
    ranked = sorted(sorted(rows, key=repr), key=lambda row: row[order], reverse=True)
    return ranked[:k]


def upload_blocks(num_rows: int, clients: int, rows_per_block: int) -> int:
    """Blocks an upload creates: rows are shared out over the client nodes first, and each
    client cuts its contiguous share into blocks of ``rows_per_block``."""
    base, extra = divmod(num_rows, clients)
    shares = [base + (1 if i < extra else 0) for i in range(clients)]
    return sum(-(-share // rows_per_block) for share in shares if share)
