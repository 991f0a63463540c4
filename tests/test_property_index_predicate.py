"""Property-based tests (hypothesis) for the index, predicates and sort machinery."""

from hypothesis import given, settings, strategies as st

from repro.engine.kernels import filter_range
from repro.engine.planner import BoundQuery
from repro.hail.hail_block import HailBlock
from repro.hail.index import HailIndex
from repro.hail.sortindex import sort_permutation
from repro.query.annotation import HailQuery
from repro.query.predicate import Comparison, Operator, Predicate
from repro.query.schema import FieldType, Schema

_INTS = st.integers(min_value=-10_000, max_value=10_000)


# --------------------------------------------------------------------------- sparse clustered index
@given(
    values=st.lists(_INTS, min_size=0, max_size=400),
    partition_size=st.integers(min_value=1, max_value=64),
    low=_INTS,
    high=_INTS,
)
@settings(max_examples=200, deadline=None)
def test_index_range_lookup_is_complete(values, partition_size, low, high):
    """Every qualifying row id lies inside the candidate range returned by the index."""
    sorted_values = sorted(values)
    index = HailIndex.build("attr", sorted_values, partition_size=partition_size)
    lookup = index.lookup_range(low, high)
    for row, value in enumerate(sorted_values):
        if low <= value <= high:
            assert lookup.start_row <= row < lookup.end_row


@given(
    values=st.lists(_INTS, min_size=1, max_size=400),
    partition_size=st.integers(min_value=1, max_value=64),
    low=_INTS,
    high=_INTS,
)
@settings(max_examples=200, deadline=None)
def test_index_candidate_range_is_tight(values, partition_size, low, high):
    """The candidate range never over-reads by more than one partition on each side."""
    sorted_values = sorted(values)
    index = HailIndex.build("attr", sorted_values, partition_size=partition_size)
    lookup = index.lookup_range(low, high)
    qualifying = [row for row, value in enumerate(sorted_values) if low <= value <= high]
    if not qualifying:
        assert lookup.num_rows <= partition_size
    else:
        assert lookup.start_row >= qualifying[0] - partition_size
        assert lookup.end_row <= qualifying[-1] + partition_size + 1


@given(values=st.lists(_INTS, min_size=0, max_size=300), probe=_INTS)
@settings(max_examples=150, deadline=None)
def test_index_equality_probe_is_complete(values, probe):
    sorted_values = sorted(values)
    index = HailIndex.build("attr", sorted_values, partition_size=16)
    lookup = index.lookup_range(probe, probe)
    for row, value in enumerate(sorted_values):
        if value == probe:
            assert lookup.start_row <= row < lookup.end_row


@given(values=st.lists(_INTS, min_size=0, max_size=300))
@settings(max_examples=100, deadline=None)
def test_index_full_range_covers_everything(values):
    sorted_values = sorted(values)
    index = HailIndex.build("attr", sorted_values, partition_size=8)
    lookup = index.lookup_range(None, None)
    assert lookup.start_row == 0
    assert lookup.end_row == len(sorted_values)


# --------------------------------------------------------------------------- adaptive builds
@given(
    values=st.lists(_INTS, min_size=0, max_size=300),
    partition_size=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=150, deadline=None)
def test_adaptive_index_directory_matches_upload_time_index(values, partition_size):
    """``from_unsorted`` (the adaptive entry point) builds the identical index directory that
    the upload pipeline builds after its explicit sort — same keys, same partitioning."""
    adaptive_index, permutation = HailIndex.from_unsorted(
        "attr", values, partition_size=partition_size
    )
    upload_index = HailIndex.build("attr", sorted(values), partition_size=partition_size)
    assert adaptive_index.partition_keys == upload_index.partition_keys
    assert adaptive_index.num_values == upload_index.num_values
    assert [values[i] for i in permutation] == sorted(values)


_RECORDS = st.lists(st.tuples(_INTS, _INTS), min_size=0, max_size=200)
_RANGE_OPS = st.sampled_from(
    [Operator.EQ, Operator.LT, Operator.LE, Operator.GT, Operator.GE]
)


def _sort_clause(block: HailBlock, predicate: Predicate):
    """The predicate's first clause on the block's sort attribute (``None`` without one), as
    the job's bound query hands it to ``candidate_rows``."""
    bound = BoundQuery.bind(HailQuery(filter=predicate), block.schema)
    return bound.first_clauses.get(block.sort_attribute, (None, False))[0]


@st.composite
def _predicates(draw):
    """Random predicates over the (a, b) schema: single clause, between, or a conjunction."""
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return Predicate.comparison("a", draw(_RANGE_OPS), draw(_INTS))
    if kind == 1:
        low, high = draw(_INTS), draw(_INTS)
        return Predicate.between("a", min(low, high), max(low, high))
    return Predicate(
        Predicate.comparison("a", draw(_RANGE_OPS), draw(_INTS)).clauses
        + Predicate.comparison("b", draw(_RANGE_OPS), draw(_INTS)).clauses
    )


@given(
    records=_RECORDS,
    partition_size=st.integers(min_value=1, max_value=32),
    predicate=_predicates(),
)
@settings(max_examples=200, deadline=None)
def test_adaptively_built_block_is_scan_equivalent_for_arbitrary_predicates(
    records, partition_size, predicate
):
    """An adaptively built block answers any predicate exactly like an upload-time block.

    The adaptive build starts from whatever row order the scan encountered (here: the raw
    generated order), the upload-time build from the same rows handed to the upload pipeline;
    both must return the same qualifying tuples as a brute-force filter over the raw records —
    via the index-backed candidate lookup whenever the predicate touches the sort attribute.
    """
    adaptive_block = HailBlock.build(
        _SCHEMA, records, sort_attribute="a", partition_size=partition_size
    )
    upload_block = HailBlock.build(
        _SCHEMA, sorted(records), sort_attribute="a", partition_size=partition_size
    )
    brute_force = sorted(record for record in records if predicate.matches(record, _SCHEMA))

    for block in (adaptive_block, upload_block):
        lookup, used_index = block.candidate_rows(_sort_clause(block, predicate))
        assert used_index  # every generated predicate has a clause on the sort attribute
        rows = filter_range(block.pax, predicate, _SCHEMA, lookup.start_row, lookup.end_row)
        assert sorted(block.pax.records(rows)) == brute_force


# --------------------------------------------------------------------------- sort permutation
@given(values=st.lists(_INTS, min_size=0, max_size=300))
@settings(max_examples=150, deadline=None)
def test_sort_permutation_is_a_permutation_and_sorts(values):
    permutation = sort_permutation(values)
    assert sorted(permutation) == list(range(len(values)))
    assert [values[i] for i in permutation] == sorted(values)


@given(values=st.lists(st.text(max_size=8), min_size=0, max_size=200))
@settings(max_examples=100, deadline=None)
def test_sort_permutation_works_for_strings(values):
    permutation = sort_permutation(values)
    assert [values[i] for i in permutation] == sorted(values)


def _keyed_reference(values):
    """The keyed sort every column used to take: ``None`` first, then by value, stable."""
    return sorted(range(len(values)), key=lambda i: (values[i] is not None, values[i]))


_NAN = float("nan")
_SORT_KEY_COLUMNS = st.one_of(
    st.lists(st.integers(min_value=-5, max_value=5), max_size=200),  # many ties
    # Duplicates, both zeros (equal, so stability decides) and NaN (as one shared object and
    # as distinct ones): the order comes from ``<`` alone, so it must match pairwise.
    st.lists(
        st.one_of(st.sampled_from((0.0, -0.0, 1.5, -1.5, _NAN)), st.floats()), max_size=200
    ),
    st.lists(st.text(max_size=3), max_size=200),
    st.lists(st.dates(), max_size=200),
)


@given(values=_SORT_KEY_COLUMNS, as_tuple=st.booleans())
@settings(max_examples=200, deadline=None)
def test_sort_permutation_without_none_is_the_keyed_permutation(values, as_tuple):
    column = tuple(values) if as_tuple else values
    assert sort_permutation(column) == _keyed_reference(values)


@given(values=st.lists(st.one_of(st.none(), _INTS, st.floats(allow_nan=False)), max_size=200))
@settings(max_examples=150, deadline=None)
def test_sort_permutation_still_sorts_none_first(values):
    permutation = sort_permutation(tuple(values))
    assert permutation == _keyed_reference(values)
    nones = values.count(None)
    assert all(values[i] is None for i in permutation[:nones])
    rest = [values[i] for i in permutation[nones:]]
    assert rest == sorted(rest)


# --------------------------------------------------------------------------- predicates
_SCHEMA = Schema.of(("a", FieldType.INT), ("b", FieldType.INT))


@given(value=_INTS, low=_INTS, high=_INTS)
@settings(max_examples=200, deadline=None)
def test_between_equivalent_to_ge_and_le(value, low, high):
    between = Predicate.between("a", low, high)
    conjunction = Predicate(
        Predicate.comparison("a", Operator.GE, low).clauses
        + Predicate.comparison("a", Operator.LE, high).clauses
    )
    record = (value, 0)
    assert between.matches(record, _SCHEMA) == conjunction.matches(record, _SCHEMA)


@given(value=_INTS, bound=_INTS)
@settings(max_examples=200, deadline=None)
def test_comparison_operators_are_mutually_consistent(value, bound):
    lt = Comparison("a", Operator.LT, (bound,)).matches(value)
    ge = Comparison("a", Operator.GE, (bound,)).matches(value)
    assert lt != ge
    eq = Comparison("a", Operator.EQ, (bound,)).matches(value)
    le = Comparison("a", Operator.LE, (bound,)).matches(value)
    assert le == (lt or eq)


@given(value=_INTS, low=_INTS, high=_INTS)
@settings(max_examples=200, deadline=None)
def test_value_range_consistent_with_matches(value, low, high):
    clause = Comparison("a", Operator.BETWEEN, (low, high))
    range_low, range_high = clause.value_range()
    inside_range = (range_low is None or value >= range_low) and (
        range_high is None or value <= range_high
    )
    assert clause.matches(value) == inside_range
