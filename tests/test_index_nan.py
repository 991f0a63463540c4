"""A clustered index over a FLOAT/DOUBLE column holding NaN serves no range lookup.

NaN compares false with every value, so sorting such a column leaves it out of order (the
sort permutation stays what ``sort_permutation`` gives) and a bisect of the index directory —
or of the sorted window — can step past matching rows.  The index fails closed instead: the
block is scanned (``used_index`` False, the plan's fallback reason naming NaN), and HAIL
answers exactly what stock Hadoop answers.  Each path that can put such an index on a
replica is covered: the upload, an adaptive build, and a top-k whose pushed-down threshold
clause lands on the indexed column.
"""

from __future__ import annotations

import math

import pytest

from repro.api import Session, col
from repro.engine import kernels
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.query.predicate import Operator, Predicate
from repro.query.schema import FieldType, Schema

nan = math.nan
_SCHEMA = Schema.of(("a", FieldType.DOUBLE), ("b", FieldType.INT), name="nan")
_VALUES = [5.0, nan, 1.0, 3.0, 2.0, nan, 4.0, 0.5, 6.0, 7.0]
_ROWS = [(value, i) for i, value in enumerate(_VALUES)]


def _session(config: HailConfig, rows, nodes: int = 1, schema: Schema = _SCHEMA) -> Session:
    """HAIL and Hadoop, one replica per block; on one node, one block per 10 rows."""
    session = Session.deploy(
        nodes=nodes, systems=("HAIL", "Hadoop"), hail_config=config, replication=1
    )
    session.upload("/nan", rows, schema, rows_per_block=10)
    return session


def _answers(session: Session, dataset):
    return [sorted(dataset.collect(system=name).records) for name in ("HAIL", "Hadoop")]


@pytest.mark.parametrize("partition_size", [1, 2])
def test_an_uploaded_index_over_nan_answers_like_a_scan(partition_size):
    config = HailConfig.for_attributes(
        ("a",), functional_partition_size=partition_size, replication=1
    )
    session = _session(config, _ROWS)
    data = session.dataset("/nan")
    for low, high in ((4.5, 5.5), (2.5, 5.5), (-1.0, 9.0)):
        query = data.where(col("a").between(low, high)).select("b")
        hail, hadoop = _answers(session, query)
        assert hail == hadoop and hail, (low, high)
        (plan,) = query.collect(system="HAIL").plan.block_plans
        assert not plan.uses_index and "NaN" in plan.fallback_reason
    assert _answers(session, data.where(col("a").between(4.5, 5.5)).select("b"))[0] == [(0,)]


def test_the_index_refuses_the_lookup_and_the_sorted_range_declines():
    block = HailBlock.build(_SCHEMA, _ROWS, sort_attribute="a", partition_size=1)
    predicate = Predicate.comparison("a", Operator.BETWEEN, 4.5, 5.5)
    (clause,) = predicate.clauses
    lookup, used_index = block.candidate_rows(clause)
    assert not used_index and lookup == block.whole_block_lookup()
    assert block.index_refusal() == "index column 'a' holds NaN"
    assert kernels.sorted_range(block.pax, predicate, _SCHEMA, clause, 0, 10) is None
    clean = HailBlock.build(_SCHEMA, [(0.5 * i, i) for i in range(10)], "a", partition_size=1)
    assert clean.index_refusal() is None and clean.candidate_rows(clause)[1]


def test_an_adaptive_index_over_nan_answers_like_a_scan():
    """Two nodes, so each 5-row block has a node free to take its adaptive replica."""
    config = HailConfig.for_attributes(
        ("b",), functional_partition_size=1, replication=1
    ).with_adaptive(True, offer_rate=1.0)
    session = _session(config, _ROWS, nodes=2)
    query = session.dataset("/nan").where(col("a").between(2.5, 5.5)).select("b")
    for run in range(3):  # the first run builds the index on ``a``, the later ones meet it
        hail, hadoop = _answers(session, query)
        assert hail == hadoop == [(0,), (3,), (6,)], run
    assert session.system("HAIL").adaptive_replica_count("/nan") == 2
    plans = query.collect(system="HAIL").plan.block_plans
    assert all("NaN" in plan.fallback_reason for plan in plans)


def test_a_top_k_threshold_on_an_index_over_nan_keeps_every_row():
    """The first block (file order: float columns register no zone range) sets the k-th value
    2.2; the threshold ``a >= 2.2`` then probes the NaN block, whose 5.0 must still count."""
    head = [11.0, 2.5, 2.4, 2.3, 2.2, 0.1, 0.2, 0.3, 0.4, 0.5]
    rows = [(value, i) for i, value in enumerate(head + _VALUES)]
    config = HailConfig.for_attributes(("a",), functional_partition_size=1, replication=1)
    session = _session(config, rows)
    ranked = session.dataset("/nan").order_by("a", descending=True).limit(5)
    hail = ranked.collect(system="HAIL").records
    assert hail == ranked.collect(system="Hadoop").records
    assert [value for value, _ in hail] == [11.0, 7.0, 6.0, 5.0, 4.0]


@pytest.mark.parametrize("ftype", [FieldType.INT, FieldType.DOUBLE])
def test_a_nan_operand_on_a_clean_indexed_column_selects_nothing(ftype):
    """NaN compares false with every value, so a clause with a NaN operand holds on no row;
    a bisect for it would return the whole window, so the index scan's run declines to the
    scan kernels while the index still serves the (whole-block) lookup."""
    schema = Schema.of(("a", ftype), ("b", FieldType.INT), name="clean")
    kind = int if ftype is FieldType.INT else float
    rows = [(kind(value), i) for i, value in enumerate([5, 1, 3, 2, 4, 0, 6, 7, 9, 8])]
    config = HailConfig.for_attributes(("a",), functional_partition_size=1, replication=1)
    session = _session(config, rows, schema=schema)
    data = session.dataset("/nan")
    a = col("a")
    for clause in (a >= nan, a == nan, a <= nan, a > nan, a < nan, a.between(nan, 5)):
        query = data.where(clause).select("b")
        assert _answers(session, query) == [[], []], clause
        (plan,) = query.collect(system="HAIL").plan.block_plans
        assert plan.uses_index, clause
    query = data.where(a.between(2, nan)).select("b")
    assert _answers(session, query) == [[], []]
