"""Property-based tests: the vectorized executor is byte-identical to a brute-force full scan.

The engine's columnar kernels (``clause_positions`` / ``filter_range``) plus the
clustered-index candidate pruning must return exactly the rows and projected tuples a naive
row-at-a-time full scan over the whole block returns, for arbitrary predicates, projections
and block shapes — including empty blocks and empty candidate ranges.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.engine.kernels import clause_positions, filter_range
from repro.engine.planner import BoundQuery
from repro.hail.hail_block import HailBlock
from repro.query.annotation import HailQuery
from repro.query.predicate import Comparison, Operator, Predicate
from repro.query.schema import FieldType, Schema

_SCHEMA = Schema.of(
    ("key", FieldType.INT),
    ("word", FieldType.STRING),
    ("score", FieldType.INT),
    name="engine-prop",
)

_KEYS = st.integers(min_value=-50, max_value=50)
_WORDS = st.sampled_from(["alpha", "beta", "gamma", "delta", ""])
_SCORES = st.integers(min_value=0, max_value=9)

_RECORDS = st.lists(st.tuples(_KEYS, _WORDS, _SCORES), min_size=0, max_size=120)

_INT_OPS = st.sampled_from(
    [Operator.EQ, Operator.LT, Operator.LE, Operator.GT, Operator.GE, Operator.BETWEEN]
)


def _int_clause(attribute: str, op: Operator, a: int, b: int) -> Comparison:
    if op == Operator.BETWEEN:
        return Comparison(attribute, op, (min(a, b), max(a, b)))
    return Comparison(attribute, op, (a,))


_CLAUSES = st.one_of(
    st.builds(_int_clause, st.just("key"), _INT_OPS, _KEYS, _KEYS),
    st.builds(_int_clause, st.just("score"), _INT_OPS, _SCORES, _SCORES),
    st.builds(lambda w: Comparison("word", Operator.EQ, (w,)), _WORDS),
)

_PREDICATES = st.one_of(
    st.none(), st.lists(_CLAUSES, min_size=1, max_size=3).map(Predicate)
)

_PROJECTIONS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_SCHEMA.field_names), min_size=1, max_size=3, unique=True),
)


def _indexes(projection) -> list[int]:
    return [_SCHEMA.index_of(name) for name in (projection or _SCHEMA.field_names)]


def _sort_clause(block: HailBlock, predicate: Predicate):
    """The predicate's first clause on the block's sort attribute (``None`` without one), as
    the job's bound query hands it to ``candidate_rows``."""
    bound = BoundQuery.bind(HailQuery(filter=predicate), block.schema)
    return bound.first_clauses.get(block.sort_attribute, (None, False))[0]


def _brute_force(block: HailBlock, predicate, projection):
    """Row-at-a-time full scan over every record of the block (the reference semantics)."""
    rows, projected = [], []
    for row in range(block.num_records):
        record = block.pax.record(row)
        if predicate is None or predicate.matches(record, block.schema):
            rows.append(row)
            projected.append(tuple(record[i] for i in _indexes(projection)))
    return rows, projected


@given(
    records=_RECORDS,
    predicate=_PREDICATES,
    projection=_PROJECTIONS,
    sort_attribute=st.sampled_from([None, "key", "score"]),
    partition_size=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_planned_scan_equals_brute_force_full_scan(
    records, predicate, projection, sort_attribute, partition_size
):
    block = HailBlock.build(
        _SCHEMA, records, sort_attribute=sort_attribute, partition_size=partition_size
    )
    if predicate is not None:
        lookup, _used_index = block.candidate_rows(_sort_clause(block, predicate))
    else:
        lookup = block.whole_block_lookup()
    rows = filter_range(block.pax, predicate, block.schema, lookup.start_row, lookup.end_row)
    projected = block.pax.batch(rows, _indexes(projection)).rows()

    expected_rows, expected_projected = _brute_force(block, predicate, projection)
    assert list(rows) == expected_rows  # an unfiltered block is a range
    # Byte-identical, not merely ==: 1 != True-style coercions would slip through ==.
    assert pickle.dumps(projected) == pickle.dumps(expected_projected)


@given(clause=_CLAUSES, values=st.lists(st.one_of(_KEYS, _WORDS), min_size=0, max_size=60))
@settings(max_examples=150, deadline=None)
def test_clause_positions_agree_with_row_at_a_time_matches(clause, values):
    comparable = [v for v in values if isinstance(v, type(clause.operands[0]))]
    assert clause_positions(clause, comparable) == [
        i for i, v in enumerate(comparable) if clause.matches(v)
    ]


def test_empty_block_yields_no_rows():
    block = HailBlock.build(_SCHEMA, [], sort_attribute="key", partition_size=4)
    predicate = Predicate.equals("key", 1)
    lookup, used_index = block.candidate_rows(_sort_clause(block, predicate))
    assert used_index
    assert filter_range(block.pax, predicate, block.schema, lookup.start_row, lookup.end_row) == []
    assert block.pax.batch([], _indexes(None)).rows() == []


def test_empty_candidate_range_short_circuits():
    block = HailBlock.build(
        _SCHEMA, [(i, "alpha", i % 3) for i in range(32)], sort_attribute="key", partition_size=4
    )
    predicate = Predicate.between("key", 10, 5)  # contradictory bounds: empty lookup
    lookup, _ = block.candidate_rows(_sort_clause(block, predicate))
    assert lookup.is_empty
    assert filter_range(block.pax, predicate, block.schema, lookup.start_row, lookup.end_row) == []
