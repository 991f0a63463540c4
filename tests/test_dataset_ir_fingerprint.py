"""Fingerprint of what a ``Dataset`` chain compiles to, or how it is refused.

Every row of the chain table below is built on a fresh two-path session and recorded as
``repr(logical())`` plus ``repr(to_query())`` — or, where the chain is refused, the type and
message of the exception and whether it came from a builder or from compilation.  The
table covers every builder after every operator (group-by, top-k, join), both orders of each
operator's two builders, re-grouping and re-limiting, the combiner switch before and after
``group_by``, join sides that are named, described or the same dataset, named and unnamed
datasets (the auto-name counter is consumed once per ``logical()`` call, so its sequence is
pinned too) and fifteen stacking rejections.  The digest of all rows is pinned, so a change
to how a ``Dataset`` holds its query that moves one field, name or message fails here.
"""

from __future__ import annotations

import hashlib

from repro.api import Session, col
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, SyntheticGenerator

#: Digest of every row below, captured while a ``Dataset`` kept one field per builder.
EXPECTED_DIGEST = "5bdd73923de8ec07"
EXPECTED_ROWS = 60

_A, _B = "/ir/a", "/ir/b"

_SCANS = [
    ("scan", lambda a, b: a),
    ("scan named", lambda a, b: a.named("n")),
    (
        "scan builders",
        lambda a, b: a.where(col("f1") < 10).select("f1", "f2").described("label").with_selectivity(0.5),
    ),
    ("where conjoins", lambda a, b: a.where(col("f1") >= 5).where(col("f1") <= 9)),
    ("select replaces", lambda a, b: a.select("f1").select("f2", "f3")),
    ("where bare column", lambda a, b: a.where(col("f1"))),
    ("where not an expression", lambda a, b: a.where("f1 < 3")),
    ("select nothing", lambda a, b: a.select()),
]

_GROUPED = [
    ("group_by agg", lambda a, b: a.group_by("f3").agg("count(*)")),
    ("agg group_by", lambda a, b: a.agg("count(*)", "sum(f2)").group_by("f3", "f4")),
    ("regroup", lambda a, b: a.group_by("f3").agg("count(*)").group_by("f4")),
    ("re-agg", lambda a, b: a.group_by("f3").agg("count(*)").agg("max(f2)", "avg(f5)")),
    ("group_by alone", lambda a, b: a.group_by("f3")),
    ("agg alone", lambda a, b: a.agg("count(*)")),
    ("group_by nothing", lambda a, b: a.group_by()),
    ("agg nothing", lambda a, b: a.group_by("f3").agg()),
    ("combiner after group_by", lambda a, b: a.group_by("f3").agg("count(*)").with_combiner(False)),
    ("combiner before group_by", lambda a, b: a.with_combiner(False).group_by("f3").agg("min(f2)")),
    (
        "combiner toggled",
        lambda a, b: a.group_by("f3").with_combiner(False).with_combiner(True).agg("count(*)"),
    ),
    ("group then where", lambda a, b: a.group_by("f3").agg("count(*)").where(col("f2") < 100)),
    ("group then select", lambda a, b: a.group_by("f3").agg("count(*)").select("f3")),
    ("select then group", lambda a, b: a.select("f2").group_by("f3").agg("count(*)")),
    (
        "group then described",
        lambda a, b: a.group_by("f3").agg("count(*)").described("grouped").with_selectivity(0.1),
    ),
    ("group named", lambda a, b: a.where(col("f1") == 4).group_by("f3").agg("sum(f1)").named("g")),
    ("group bad spec", lambda a, b: a.group_by("f3").agg("median(f2)")),
]

_RANKED = [
    ("order_by limit", lambda a, b: a.order_by("f2").limit(3)),
    ("limit order_by", lambda a, b: a.limit(3).order_by("f2", descending=True)),
    ("relimit", lambda a, b: a.order_by("f2").limit(3).limit(5)),
    ("reorder", lambda a, b: a.order_by("f2", descending=True).limit(3).order_by("f4")),
    ("order_by alone", lambda a, b: a.order_by("f2")),
    ("limit alone", lambda a, b: a.limit(2)),
    ("limit zero", lambda a, b: a.order_by("f2").limit(0)),
    ("top-k then where", lambda a, b: a.order_by("f2").limit(3).where(col("f1").between(1, 9))),
    ("top-k then select", lambda a, b: a.order_by("f2").limit(3).select("f2", "f1")),
    ("top-k then described", lambda a, b: a.order_by("f2").limit(3).described("ranked")),
    ("top-k named", lambda a, b: a.limit(4).named("t").order_by("f6")),
]

_JOINED = [
    ("join", lambda a, b: a.join(b, on="f1")),
    (
        "join right side named and described",
        lambda a, b: a.join(
            b.named("r").described("right").with_selectivity(0.2).where(col("f2") < 7).select("f1", "f2"),
            on="f1",
        ),
    ),
    ("self-join", lambda a, b: a.select("f1", "f2").join(a.select("f1", "f3"), on="f1")),
    ("join hash", lambda a, b: a.where(col("f2") > 3).join(b, on="f1", strategy="hash")),
    ("join merge named", lambda a, b: a.join(b, on="f2", strategy="merge").named("j")),
    ("join then where", lambda a, b: a.join(b.where(col("f3") < 5), on="f1").where(col("f4") >= 2)),
    ("join then select", lambda a, b: a.join(b, on="f1").select("f1", "f5")),
    ("join then described", lambda a, b: a.join(b, on="f1").described("joined").with_selectivity(0.3)),
    ("join not a dataset", lambda a, b: a.join("b", on="f1")),
]

_REJECTED = [
    ("join -> group_by", lambda a, b: a.join(b, on="f1").group_by("f3")),
    ("join -> agg", lambda a, b: a.join(b, on="f1").agg("count(*)")),
    ("join -> order_by", lambda a, b: a.join(b, on="f1").order_by("f2")),
    ("join -> limit", lambda a, b: a.join(b, on="f1").limit(2)),
    ("group_by -> order_by", lambda a, b: a.group_by("f3").order_by("f2")),
    ("agg -> limit", lambda a, b: a.agg("count(*)").limit(2)),
    ("agg -> order_by", lambda a, b: a.group_by("f3").agg("count(*)").order_by("f2")),
    ("order_by -> group_by", lambda a, b: a.order_by("f2").group_by("f3")),
    ("limit -> agg", lambda a, b: a.limit(3).agg("count(*)")),
    ("grouped left side", lambda a, b: a.group_by("f3").join(b, on="f1")),
    ("ranked left side", lambda a, b: a.limit(3).join(b, on="f1")),
    ("join of a join", lambda a, b: a.join(b, on="f1").join(b, on="f1")),
    ("joined right side", lambda a, b: a.join(b.join(a, on="f1"), on="f1")),
    ("grouped right side", lambda a, b: a.join(b.group_by("f3").agg("count(*)"), on="f1")),
    ("ranked right side", lambda a, b: a.join(b.order_by("f2"), on="f1")),
]

CHAINS = _SCANS + _GROUPED + _RANKED + _JOINED + _REJECTED


def _session() -> Session:
    session = Session.deploy(nodes=3)
    for seed, path in enumerate((_A, _B)):
        rows = SyntheticGenerator(seed=seed).generate(20)
        session.upload(path, rows, SYNTHETIC_SCHEMA, rows_per_block=10)
    return session


def _refused(error: Exception) -> tuple:
    return type(error).__name__, str(error)


def _row(label: str, chain, a, b) -> tuple:
    try:
        dataset = chain(a, b)
    except Exception as error:  # noqa: BLE001 - the refusal is the row
        return label, "builder", _refused(error)
    logical = repr(dataset.logical())
    try:
        compiled = repr(dataset.to_query())
    except Exception as error:  # noqa: BLE001 - the refusal is the row
        compiled = _refused(error)
    return label, logical, compiled


def _fingerprint() -> list:
    session = _session()
    a, b = session.dataset(_A), session.dataset(_B)
    return [_row(label, chain, a, b) for label, chain in CHAINS]


def test_fifteen_stacking_rejections_refuse_at_build_time():
    rows = {row[0]: row for row in _fingerprint()}
    assert len(_REJECTED) == 15
    for label, _ in _REJECTED:
        assert rows[label][1] == "builder", label
        assert rows[label][2][0] == "UnsupportedExpressionError", label


def test_dataset_ir_fingerprint_is_unchanged():
    rows = _fingerprint()
    assert len(rows) == EXPECTED_ROWS
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == EXPECTED_DIGEST
