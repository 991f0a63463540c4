"""Stock Hadoop's block text mapper: filter first, split in full only what qualifies.

``make_block_parser`` splits every line of a block only through the first clause's column,
filters, and splits the survivors on through the last column the query reads.  Two kinds of
test hold it to that:

- a **call-count guard** — on a well-formed block, the lines arity-checked and split past the
  first clause's column are exactly the qualifying rows (``str`` is shadowed inside the
  parser's module, as ``tests/test_zone_columns.py`` shadows ``min``/``max``);
- a **differential property** — on generated blocks of well-formed, wrong-arity and
  malformed lines, the block form's column batch holds exactly the rows (values and order) the
  per-line reference ``make_line_parser`` keeps.
"""

from __future__ import annotations

from datetime import date
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.hadoop as hadoop_module
from repro.datagen import SYNTHETIC_SCHEMA, SyntheticGenerator
from repro.datagen.synthetic import VALUE_RANGE
from repro.datagen.uservisits import USERVISITS_SCHEMA
from repro.query.predicate import Comparison, Operator, Predicate, Query
from repro.query.schema import FieldType, Schema

#: A schema whose delimiter is neither ``|`` nor one character long.
_COLONS_SCHEMA = Schema.of(
    ("a", FieldType.INT),
    ("b", FieldType.STRING),
    ("c", FieldType.DATE),
    ("d", FieldType.DOUBLE),
    ("e", FieldType.BIGINT),
    ("f", FieldType.FLOAT),
    name="colons",
    delimiter="::",
)
_SCHEMAS = (SYNTHETIC_SCHEMA, USERVISITS_SCHEMA, _COLONS_SCHEMA)


def _parsers(query, schema):
    parse_line = hadoop_module.make_line_parser(query, schema)
    return hadoop_module.make_block_parser(query, schema, parse_line), parse_line


def _reference(parse_line, lines) -> list:
    return [row for row in map(parse_line, lines) if row is not None]


# --------------------------------------------------------------------------- call-count guard
class _RecordingStr(str):
    """Stands in for ``str`` inside the parser module: logs every count and split it runs.

    Its methods also run when the parser calls them unbound (``str.split(line, ...)``) on a
    plain string, so both spellings of the two calls are seen.
    """

    log: list = []

    def count(self, *args):
        _RecordingStr.log.append(("count", str.__str__(self)))
        return str.count(self, *args)

    def split(self, sep=None, maxsplit=-1):
        _RecordingStr.log.append(("split", str.__str__(self), maxsplit))
        return str.split(self, sep, maxsplit)


@pytest.mark.parametrize("column", ["f1", "f10"])
@pytest.mark.parametrize("projected", [("f1", "f5", "f19"), None])
def test_only_qualifying_lines_are_arity_checked_and_split_past_the_filter_column(
    monkeypatch, column, projected
):
    rows = SyntheticGenerator(seed=11).generate(500)
    lines = [SYNTHETIC_SCHEMA.format_record(row) for row in rows]
    index = SYNTHETIC_SCHEMA.index_of(column)
    query = Query("guard", Predicate.comparison(column, Operator.LT, VALUE_RANGE // 10), projected)
    block, parse_line = _parsers(query, SYNTHETIC_SCHEMA)
    expected = _reference(parse_line, lines)
    qualifying = [line for line in lines if int(line.split("|")[index]) < VALUE_RANGE // 10]
    assert 0 < len(qualifying) < len(lines) // 5

    monkeypatch.setattr(hadoop_module, "str", _RecordingStr, raising=False)
    monkeypatch.setattr(_RecordingStr, "log", [])
    assert block(SimpleNamespace(lines=tuple(map(_RecordingStr, lines)))).rows() == expected

    counted = [entry[1] for entry in _RecordingStr.log if entry[0] == "count"]
    splits = [entry[1:] for entry in _RecordingStr.log if entry[0] == "split"]
    assert counted == qualifying
    # Every line is cut once, only through the filter column ...
    assert splits[: len(lines)] == [(line, index + 1) for line in lines]
    # ... and only the qualifying ones are cut again, from the tail that first cut left.
    later = splits[len(lines):]
    assert len(later) == len(qualifying)
    assert not set(line for line, _ in later) & set(lines)


# --------------------------------------------------------------------------- differential
def _values(ftype: FieldType):
    """Typed values drawn from a narrow range, so filters both keep and drop rows."""
    if ftype in (FieldType.INT, FieldType.BIGINT):
        return st.integers(0, 9)
    if ftype in (FieldType.FLOAT, FieldType.DOUBLE):
        return st.sampled_from([-1.5, 0.0, 0.25, 2.0, 7.75])
    if ftype is FieldType.DATE:
        return st.dates(date(2020, 1, 1), date(2020, 1, 9))
    return st.text("ab:|", max_size=2)


#: A token no numeric or date column parses (a string column keeps it as text).
_BAD_TOKENS = st.sampled_from(["?", "", "1.5.2", "2020-13", "x9"])
_LINE_KINDS = st.sampled_from(["bad", "short", "long", "pair", "cut", "bad-short", "bad-long"])


@st.composite
def _block(draw, schema: Schema) -> list[str]:
    """Lines mixing well-formed rows with up to three kinds of wrong-arity or malformed line.

    A block draws its kinds first, so some blocks are well-formed throughout (the block pass
    answers) and others hold one kind of flaw only.
    """
    width = len(schema)
    kinds = ["ok"] + draw(st.lists(_LINE_KINDS, max_size=3, unique=True))
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 14))):
        tokens = [field.format(draw(_values(field.ftype))) for field in schema.fields]
        kind = draw(st.sampled_from(kinds))
        if kind.startswith("bad"):
            tokens[draw(st.integers(0, width - 1))] = draw(_BAD_TOKENS)
        if kind.endswith("short"):
            del tokens[draw(st.integers(0, width - 1))]
        elif kind.endswith("long"):
            tokens.append(draw(st.sampled_from(["0", "extra"])))
        elif kind == "cut":  # fewer fields than whichever column a filter may read
            tokens = tokens[: draw(st.integers(0, width - 1))]
        elif kind == "pair":  # one line short a field, the next with one extra: same total
            spare = tokens.pop(draw(st.integers(0, width - 1)))
            lines.append(schema.delimiter.join(tokens))
            tokens = [field.format(draw(_values(field.ftype))) for field in schema.fields]
            tokens.append(spare)
        lines.append(schema.delimiter.join(tokens))
    return lines


@st.composite
def _query(draw, schema: Schema) -> Query:
    """No predicate or up to three clauses (first, middle, last or any column); any projection."""
    width = len(schema)
    clauses = []
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.sampled_from([0, width // 2, width - 1]) | st.integers(0, width - 1))
        values = _values(schema.fields[index].ftype)
        op = draw(st.sampled_from(list(Operator)))
        operands = (draw(values), draw(values)) if op is Operator.BETWEEN else (draw(values),)
        clauses.append(Comparison(schema.fields[index].name, op, operands))
    names = schema.field_names
    projection = draw(
        st.none()
        | st.just(tuple(names))
        | st.lists(st.sampled_from(names), min_size=1, max_size=4).map(tuple)
    )
    return Query("generated", Predicate(clauses) if clauses else None, projection)


@given(data=st.data(), schema=st.sampled_from(_SCHEMAS))
@settings(max_examples=400, deadline=None)
def test_the_block_parser_keeps_exactly_the_rows_the_line_parser_keeps(data, schema):
    query = data.draw(_query(schema))
    lines = data.draw(_block(schema))
    block, parse_line = _parsers(query, schema)
    assert block(SimpleNamespace(lines=tuple(lines))).rows() == _reference(parse_line, lines)
