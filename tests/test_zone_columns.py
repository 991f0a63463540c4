"""Zone synopses cost what a query names: per attribute on first use, per row set for ``Dir_rep``.

``ZoneMap.build`` records its block and computes nothing; ``pruned_rows`` and ``may_match``
fill the zones of the attributes their clauses name, once (``pruned_rows`` none at partition
size 1, where it reads the column itself).  ``block_zone_ranges`` computes a
column's block-level triple once per row set and ``PaxBlock.reorder`` carries it, except for
FLOAT/DOUBLE columns, whose ``min``/``max`` depend on the row order.

- **call counts** — ``min``/``max`` calls in ``repro.layouts.zonemap``, shadowed in that
  module's namespace, around a first, a repeated and a second-attribute query and around a
  reorder: the guard is a count, not a stopwatch;
- **differential** — the lazy map against the eager build it replaced (kept verbatim below) on
  real ``PaxBlock``s of INT, DOUBLE (NaN, ``±0.0``, ``±inf``), STRING and DATE columns, over a
  sequence of queries on one map, so the order the zones fill in cannot matter, on both kernel
  backends;
- **injected zones are read as given** — a one-row-partition map carrying zones that disagree
  with its block prunes by those zones, never by the column;
- **exactness** — a carried block range equals, by ``repr``, what a fresh block of the same
  rows computes, through every replica-creation path;
- **pruning stays on** — a lazily empty cache must not read as "no zones": the pruned-bytes
  counter and the charged seconds of a pruning query are pinned to the eager build's values.
"""

from __future__ import annotations

import math
import random
from datetime import date
from typing import Any
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.datagen.uservisits import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine import kernels
from repro.engine.lifecycle import PlacementBalancer, evict_under_pressure
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.hail.scheduler import check_dir_rep_consistency
from repro.hail.system import HailSystem
from repro.layouts import zonemap
from repro.layouts.pax import PaxBlock
from repro.layouts.zonemap import ZoneMap, block_zone_ranges, may_match_ranges
from repro.mapreduce.counters import Counters
from repro.query.predicate import Operator, Predicate, Query
from repro.query.schema import FieldType, Schema


# --------------------------------------------------------------------------- call counts
@pytest.fixture
def min_max_calls(monkeypatch):
    """A one-element list counting, while it is live, every ``min``/``max`` pass over values
    the zone-map module makes (a one-argument call; a two-scalar call is not a pass)."""
    calls = [0]

    def counting(builtin):
        def call(*args, **kwargs):
            calls[0] += len(args) == 1
            return builtin(*args, **kwargs)

        return call

    monkeypatch.setattr(zonemap, "min", counting(min), raising=False)
    monkeypatch.setattr(zonemap, "max", counting(max), raising=False)
    return calls


_ROWS = 40
_PARTITION_SIZE = 4
_PARTITIONS = _ROWS // _PARTITION_SIZE
#: One attribute's zones: a pair per partition plus its block-level pair.
_ONE_ATTRIBUTE = 2 * (_PARTITIONS + 1)


def _scan(block: HailBlock, predicate: Predicate):
    """What the executor asks of a payload's synopsis: the skip re-check, then pruning."""
    zone_map = block.zone_map
    assert zone_map.matches(block.num_records)
    zone_map.may_match(predicate, block.schema)
    return zone_map.pruned_rows(predicate, block.schema, 0, block.num_records)


def test_a_query_computes_the_zones_of_the_attributes_it_names(min_max_calls):
    block = HailBlock.build(
        SYNTHETIC_SCHEMA,
        SyntheticGenerator(seed=13).generate(_ROWS),
        sort_attribute="f2",
        partition_size=_PARTITION_SIZE,
    )
    on_f1 = Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 3)
    min_max_calls[0] = 0
    pruned = _scan(block, on_f1)
    # The eager build paid 2 * 19 * (P + 1) here, for eighteen columns nobody filters on.
    assert min_max_calls[0] <= _ONE_ATTRIBUTE
    assert pruned is None or 0 in pruned  # a third of the values qualify: something survives
    min_max_calls[0] = 0
    assert _scan(block, on_f1) == pruned
    assert min_max_calls[0] == 0
    _scan(block, Predicate.between("f3", 0, VALUE_RANGE // 10))
    assert min_max_calls[0] <= _ONE_ATTRIBUTE


def test_block_zone_ranges_are_carried_through_a_reorder(min_max_calls):
    pax = PaxBlock.from_records(SYNTHETIC_SCHEMA, SyntheticGenerator(seed=17).generate(_ROWS))
    permutation = list(range(_ROWS))
    random.Random(3).shuffle(permutation)
    ranges = block_zone_ranges(pax)
    assert min_max_calls[0] == 2 * len(SYNTHETIC_SCHEMA)
    min_max_calls[0] = 0
    assert block_zone_ranges(pax.reorder(permutation)) == ranges
    assert min_max_calls[0] == 0  # all INT: nothing a permutation can change


# --------------------------------------------------------------------------- exactness
_FLOATS = Schema.of(("k", FieldType.INT), ("x", FieldType.DOUBLE), name="floats")


@pytest.mark.parametrize(
    "values, permutation",
    [
        ([math.nan, 1.0, 5.0], [1, 0, 2]),  # min/max of a list starting with NaN is NaN
        ([0.0, -0.0], [1, 0]),  # min(0.0, -0.0) keeps whichever comes first
    ],
)
def test_a_float_column_is_recomputed_for_every_row_order(values, permutation):
    # ``k`` descends, so sorting on it reverses the rows.
    rows = [(len(values) - index, value) for index, value in enumerate(values)]
    pax = PaxBlock.from_records(_FLOATS, rows)
    block_zone_ranges(pax)
    reordered = pax.reorder(permutation)
    fresh = PaxBlock.from_records(_FLOATS, [rows[i] for i in permutation])
    assert repr(block_zone_ranges(reordered)) == repr(block_zone_ranges(fresh))
    assert repr(block_zone_ranges(reordered)) != repr(block_zone_ranges(pax))
    # The same through the replica path: a resorted HailBlock registers its own order's zones.
    block = HailBlock.build(_FLOATS, rows, sort_attribute=None, partition_size=1)
    block.replica_info(0)
    resorted = block.resorted("k")
    rebuilt = HailBlock.build(_FLOATS, rows[::-1], sort_attribute=None)
    assert resorted.pax.records() == rebuilt.pax.records()
    assert repr(resorted.replica_info(0).zone_ranges) == repr(rebuilt.zone_ranges())
    assert repr(resorted.zone_ranges()) != repr(block.zone_ranges())


def _signed_zero_rows(count: int) -> list[tuple]:
    """UserVisits rows whose adRevenue is 0.0 or -0.0: its block-level zone depends on order."""
    rows = UserVisitsGenerator(seed=5).generate(count)
    position = USERVISITS_SCHEMA.index_of("adRevenue")
    return [
        row[:position] + ((0.0, -0.0)[index % 2],) + row[position + 1 :]
        for index, row in enumerate(rows)
    ]


def _assert_zone_ranges_exact(system: HailSystem, path: str) -> set[str]:
    """Every registered synopsis equals, by ``repr``, a fresh block's of the stored rows."""
    namenode = system.hdfs.namenode
    origins = set()
    for block_id in namenode.file_blocks(path):
        for datanode_id, info in namenode.replica_infos(block_id).items():
            pax = system.hdfs.datanode(datanode_id).replica(block_id).payload.pax
            fresh = PaxBlock.from_records(pax.schema, pax.records())
            assert repr(info.zone_ranges) == repr(block_zone_ranges(fresh)), (block_id, info.origin)
            origins.add(info.origin)
    return origins


def test_carried_ranges_stay_exact_through_commits_downgrades_and_rebuilds():
    path = "/zones/uv"
    config = HailConfig(
        index_attributes=(),
        replication=3,
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        zone_maps=True,
    )
    system = HailSystem(
        Cluster.homogeneous(4, seed=7),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False, data_scale=5000.0)),
    )
    system.upload(path, _signed_zero_rows(400), USERVISITS_SCHEMA, rows_per_block=50)
    query = Query(
        name="conv",
        predicate=Predicate.comparison("duration", Operator.LT, 20),
        projection=("duration",),
        description="",
    )
    for _ in range(2):
        system.run_query(query, path)
    assert system.adaptive_replica_count(path) > 0
    assert "adaptive" in _assert_zone_ranges_exact(system, path)
    policy = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
    evicted = evict_under_pressure(system.hdfs, policy)
    assert any(record.kind == "downgrade" for record in evicted)
    assert "evicted" in _assert_zone_ranges_exact(system, path)
    balancer = PlacementBalancer(rebuilds_per_pass=8)
    balancer.demand["duration"] = 8
    assert any(action.kind == "rebuild" for action in balancer.run(system.hdfs))
    assert "adaptive" in _assert_zone_ranges_exact(system, path)
    assert check_dir_rep_consistency(system.hdfs, path) == []


# --------------------------------------------------------------------------- pruning stays on
def test_a_pruning_query_prunes_what_the_eager_build_pruned():
    config = HailConfig(index_attributes=("f1",), functional_partition_size=4, zone_maps=True)
    system = HailSystem(
        Cluster.homogeneous(3, seed=2),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False, data_scale=50.0)),
    )
    system.upload("/zones/trap", SyntheticGenerator(seed=31).generate(240), SYNTHETIC_SCHEMA,
                  rows_per_block=40)
    query = Query(
        name="trap",
        predicate=Predicate.between("f2", 0, VALUE_RANGE // 6),
        projection=("f2", "f3"),
        description="",
    )
    result = system.run_query(query, "/zones/trap")
    counters = result.job.counters
    assert counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == 0  # pruning, not skipping
    # The eager build's values: a lazily empty zone cache that read as "no zones" would keep
    # the answer and silently drop both.
    assert counters.value(Counters.ZONE_MAP_PRUNED_BYTES) == 832.0
    assert repr(result.runtime_s) == "10.156796175884862"
    assert len(result.records) == 40


# --------------------------------------------------------------------------- differential
def _eager_build(pax: PaxBlock, partition_size: int) -> ZoneMap:
    """``ZoneMap.build`` as it stood before zones were filled per attribute, verbatim."""
    cls = ZoneMap
    if partition_size <= 0:
        raise ValueError("partition_size must be positive")
    block_zones: dict[str, tuple[Any, Any]] = {}
    partition_zones: dict[str, tuple[tuple[Any, Any], ...]] = {}
    if pax.num_rows:
        for field, column in zip(pax.schema.fields, pax.columns):
            block_zones[field.name] = (min(column), max(column))
            partition_zones[field.name] = tuple(
                (min(window), max(window))
                for window in (
                    column[start : start + partition_size]
                    for start in range(0, pax.num_rows, partition_size)
                )
            )
    return cls(
        num_rows=pax.num_rows,
        partition_size=partition_size,
        block_zones=block_zones,
        partition_zones=partition_zones,
    )


def _eager_ranges(zone_map: ZoneMap) -> tuple:
    """``ZoneMap.block_ranges`` as it stood, verbatim."""
    return tuple((name, low, high) for name, (low, high) in zone_map.block_zones.items())


def _eager_may_match(zone_map: ZoneMap, predicate, schema) -> bool:
    """``ZoneMap.may_match`` over every block-level zone, as it stood."""
    return may_match_ranges(_eager_ranges(zone_map), predicate, schema)


_BACKENDS = ["python"] + (["numpy"] if kernels.HAVE_NUMPY else [])

_MIXED = Schema.of(
    ("i", FieldType.INT),
    ("d", FieldType.DOUBLE),
    ("s", FieldType.STRING),
    ("t", FieldType.DATE),
    name="mixed",
)
_VALUES = {
    "i": st.integers(-20, 20),
    "d": st.one_of(
        st.floats(-20, 20),
        st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf]),
    ),
    "s": st.text(alphabet="abxyz", max_size=3),
    "t": st.dates(min_value=date(1999, 1, 1), max_value=date(1999, 3, 1)),
}
#: An operand the attribute's values do not compare with (``TypeError`` inside the pass).
_FOREIGN = {"i": "m", "d": "m", "s": 3, "t": 5}


def _operand(attribute: str):
    return st.one_of(
        _VALUES[attribute],
        _VALUES[attribute],
        st.none(),
        st.just(_FOREIGN[attribute]),
    )


@st.composite
def _predicates(draw):
    clauses = []
    for _ in range(draw(st.integers(1, 2))):
        attribute = draw(st.sampled_from(list(_VALUES)))
        op = draw(st.sampled_from(list(Operator)))
        arity = 2 if op is Operator.BETWEEN else 1
        operands = [draw(_operand(attribute)) for _ in range(arity)]
        clauses.append(Predicate.comparison(attribute, op, *operands).clauses[0])
    return Predicate(clauses)


@st.composite
def _scenarios(draw):
    rows = draw(st.lists(st.tuples(*_VALUES.values()), max_size=30))
    permutation = draw(st.permutations(range(len(rows))))
    size = draw(st.sampled_from([1, 2, 7, 64]))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(rows)))
        end = draw(st.integers(0, len(rows)))
        queries.append((draw(_predicates()), start, end))
    return rows, permutation, size, queries


@settings(max_examples=250, deadline=None)
@given(scenario=_scenarios())
def test_lazy_zones_answer_like_the_eager_build(scenario):
    """At partition size 1 the lazy map reads its flags off the column — through numpy, too,
    with the kernels' dispatch minimum lowered to 0 — and the eager map reads its pairs."""
    rows, permutation, size, queries = scenario
    source = PaxBlock.from_records(_MIXED, rows)
    block_zone_ranges(source)  # fill the memo the reorder hands on
    pax = source.reorder(permutation)
    lazy, eager = ZoneMap.build(pax, size), _eager_build(pax, size)
    for predicate, start, end in queries:
        want = eager.pruned_rows(predicate, _MIXED, start, end)
        for backend in _BACKENDS:
            with kernels.use_backend(backend), mock.patch.object(kernels, "_NUMPY_MIN_ROWS", 0):
                got = lazy.pruned_rows(predicate, _MIXED, start, end, kernels.zone_flags)
            assert got == want, backend
        assert lazy.may_match(predicate, _MIXED) == _eager_may_match(eager, predicate, _MIXED)
    # Whatever was filled in is the eager build's zone, to the last NaN and signed zero.
    for name, zones in lazy.partition_zones.items():
        assert repr(zones) == repr(eager.partition_zones[name])
    for name, zone in lazy.block_zones.items():
        assert repr(zone) == repr(eager.block_zones[name])
    assert repr(block_zone_ranges(pax)) == repr(_eager_ranges(eager))


# --------------------------------------------------------------------------- injected zones
@pytest.mark.parametrize("backend", _BACKENDS)
def test_injected_one_row_zones_are_read_as_given(backend):
    """Only zones a map derived from its own block are read off the column: a size-1 map that
    was handed ``partition_zones`` prunes by them even where they contradict the block."""
    schema = Schema.of(("k", FieldType.INT), name="injected")
    rows = 300  # past the numpy dispatch minimum: the numpy backend would read the column
    pax = PaxBlock.from_records(schema, [(value,) for value in range(rows)])
    # The injected zones claim the block is reversed: row r holds rows - 1 - r.
    zones = tuple((rows - 1 - row, rows - 1 - row) for row in range(rows))
    zone_map = ZoneMap(num_rows=rows, partition_size=1, partition_zones={"k": zones}, pax=pax)
    predicate = Predicate.comparison("k", Operator.LT, 50)
    with kernels.use_backend(backend):
        pruned = zone_map.pruned_rows(predicate, schema, 0, rows, kernels.zone_flags)
        kept = kernels.filter_ranges(pax, predicate, schema, 0, rows, pruned)
    # By the zones, rows 249.. may hold k <= 50 (a bound on the zone edge is kept); by the
    # column it is rows ..49.
    assert pruned == bytes(rows - 1 - row > 50 for row in range(rows))
    assert kept == []  # the rows that match were pruned: the synopsis is trusted as given
    assert zone_map.partition_zones == {"k": zones}
