"""DSL and compile-rule coverage for the operator subsystem's user-facing surface.

The promise the API makes is *fail loudly*: a `Dataset` chain the operator IR cannot express
raises :class:`UnsupportedExpressionError` (or rejects the builder call outright) — it never
compiles silently into a wrong plan.  These tests pin every rejection rule, the happy-path
compilation into the three operator query types, and the session-level `explain()` rendering.
"""

from __future__ import annotations

import pytest

from repro.api import Session, UnsupportedExpressionError, col
from repro.datagen.synthetic import SyntheticGenerator
from repro.engine.operators import GroupByQuery, JoinQuery, TopKQuery
from repro.hail.config import HailConfig

_PATH = "/api/operators"


@pytest.fixture(scope="module")
def session():
    sess = Session.deploy(
        nodes=3,
        hail_config=HailConfig(index_attributes=("f1",), functional_partition_size=1),
    )
    generator = SyntheticGenerator(seed=5)
    sess.upload(_PATH, generator.generate(200), generator.schema, rows_per_block=50)
    return sess


# --------------------------------------------------------------------------- compilation
def test_group_by_compiles_to_group_by_query(session):
    query = (
        session.dataset(_PATH)
        .where(col("f2") < 500_000)
        .group_by("f3")
        .agg("count(*)", "sum(f2)")
        .named("g")
        .to_query()
    )
    assert isinstance(query, GroupByQuery)
    assert query.keys == ("f3",)
    assert [spec.sql() for spec in query.aggregates] == ["count(*)", "sum(f2)"]
    assert "GROUP BY f3" in query.description


def test_join_compiles_to_join_query(session):
    query = (
        session.dataset(_PATH)
        .select("f1", "f2")
        .join(session.dataset(_PATH).select("f1", "f3"), on="f1")
        .named("j")
        .to_query()
    )
    assert isinstance(query, JoinQuery)
    assert query.key == "f1" and query.strategy is None
    assert "JOIN" in query.description


def test_order_by_limit_compiles_to_top_k(session):
    query = (
        session.dataset(_PATH)
        .order_by("f2", descending=True)
        .limit(4)
        .named("t")
        .to_query()
    )
    assert isinstance(query, TopKQuery)
    assert (query.order_by, query.k, query.descending) == ("f2", 4, True)
    assert query.description.endswith("ORDER BY f2 DESC LIMIT 4")


# --------------------------------------------------------------------------- rejection rules
def test_agg_without_group_by_raises(session):
    with pytest.raises(UnsupportedExpressionError, match="group_by"):
        session.dataset(_PATH).agg("count(*)").named("bad").to_query()


def test_group_by_without_agg_raises(session):
    with pytest.raises(UnsupportedExpressionError, match="agg"):
        session.dataset(_PATH).group_by("f3").named("bad").to_query()


def test_select_cannot_combine_with_group_by(session):
    with pytest.raises(UnsupportedExpressionError, match="select"):
        session.dataset(_PATH).select("f2").group_by("f3").agg("count(*)").named(
            "bad"
        ).to_query()


def test_limit_without_order_by_raises(session):
    with pytest.raises(UnsupportedExpressionError, match="order_by"):
        session.dataset(_PATH).limit(3).named("bad").to_query()


def test_order_by_without_limit_raises(session):
    with pytest.raises(UnsupportedExpressionError, match="limit"):
        session.dataset(_PATH).order_by("f2").named("bad").to_query()


def test_operator_stacking_rejected_at_builder_time(session):
    """Mixing operator families on one Dataset fails immediately, not at compile time."""
    grouped = session.dataset(_PATH).group_by("f3")
    with pytest.raises(UnsupportedExpressionError):
        grouped.order_by("f2")
    with pytest.raises(UnsupportedExpressionError):
        grouped.limit(2)
    with pytest.raises(UnsupportedExpressionError):
        grouped.join(session.dataset(_PATH), on="f1")
    ranked = session.dataset(_PATH).order_by("f2")
    with pytest.raises(UnsupportedExpressionError):
        ranked.group_by("f3")
    with pytest.raises(UnsupportedExpressionError):
        session.dataset(_PATH).join(session.dataset(_PATH), on="f1").agg("count(*)")


_ONE_OPERATOR = ": one operator per query"
_JOIN_SIDE = " side already carries another operator; joins compose only with where()/select() per side"


@pytest.mark.parametrize(
    "stack, message",
    [
        (lambda d: d.join(d, on="f1").group_by("f3"), "group_by() cannot be combined with join()" + _ONE_OPERATOR),
        (lambda d: d.limit(3).group_by("f3"), "group_by() cannot be combined with order_by()/limit()" + _ONE_OPERATOR),
        (lambda d: d.join(d, on="f1").agg("count(*)"), "agg() cannot be combined with join()" + _ONE_OPERATOR),
        (lambda d: d.order_by("f2").agg("count(*)"), "agg() cannot be combined with order_by()/limit()" + _ONE_OPERATOR),
        (lambda d: d.agg("count(*)").join(d, on="f1"), "join() left" + _JOIN_SIDE),
        (lambda d: d.join(d.limit(2), on="f1"), "join() right" + _JOIN_SIDE),
        (lambda d: d.agg("count(*)").order_by("f2"), "order_by() cannot be combined with join()/group_by()" + _ONE_OPERATOR),
        (lambda d: d.join(d, on="f1").limit(2), "limit() cannot be combined with join()/group_by()" + _ONE_OPERATOR),
    ],
)
def test_operator_stacking_messages(session, stack, message):
    """The eight rejections, byte for byte (captured before they shared one helper)."""
    with pytest.raises(UnsupportedExpressionError) as raised:
        stack(session.dataset(_PATH))
    assert str(raised.value) == message


def test_bad_aggregate_spellings_raise(session):
    with pytest.raises(ValueError, match="cannot parse"):
        session.dataset(_PATH).group_by("f3").agg("median(f2)x").named("bad").to_query()
    with pytest.raises(ValueError, match="unsupported aggregate"):
        session.dataset(_PATH).group_by("f3").agg("median(f2)").named("bad").to_query()
    with pytest.raises(ValueError, match="count"):
        session.dataset(_PATH).group_by("f3").agg("sum(*)").named("bad").to_query()


# --------------------------------------------------------------------------- explain / run
def test_session_explain_renders_operators_as_sql(session):
    grouped = session.dataset(_PATH).group_by("f3").agg("count(*)").named("g-exp")
    text = grouped.explain()
    assert "GroupByAggregate" in text and "GROUP BY f3" in text
    assert "map-side combiner: on" in text

    joined = (
        session.dataset(_PATH)
        .select("f1", "f2")
        .join(session.dataset(_PATH).select("f1", "f3"), on="f1")
        .named("j-exp")
    )
    assert "strategy:" in joined.explain()

    ranked = session.dataset(_PATH).order_by("f2").limit(3).named("t-exp")
    assert "ORDER BY f2 ASC".replace(" ASC", "") in ranked.explain()
    assert "threshold pushdown" in ranked.explain()


def test_operators_run_through_the_session(session):
    """collect()/rows() execute operator datasets end-to-end on the default system."""
    rows = (
        session.dataset(_PATH).group_by("f3").agg("count(*)").named("g-run").rows()
    )
    assert rows and sum(row[-1] for row in rows) == 200

    top = session.dataset(_PATH).order_by("f2", descending=True).limit(3).named("t-run").rows()
    assert len(top) == 3
    assert top[0][1] >= top[1][1] >= top[2][1]

    joined = (
        session.dataset(_PATH)
        .select("f1", "f2")
        .join(session.dataset(_PATH).select("f1", "f2"), on="f1")
        .named("j-run")
        .collect()
    )
    # A self-join returns at least the diagonal (every row matches itself on f1).
    assert len(joined.records) >= 200
