"""Stock Hadoop: text uploads, full-scan queries.

This is the paper's primary baseline.  Uploads go through the standard HDFS pipeline
(byte-identical text replicas); queries are MapReduce jobs whose map function splits each text
line into attributes, applies the selection predicate and emits the projected attributes —
i.e. the "MAP FUNCTION FOR HADOOP MAPREDUCE" pseudo-code of Section 4.1.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter

from repro.engine.executor import TextScanResult
from repro.engine.kernels import clause_positions
from repro.hdfs.pipeline import StandardUploadPipeline
from repro.layouts.pax import ColumnBatch, gatherer
from repro.mapreduce.input_format import TextInputFormat
from repro.mapreduce.job import JobConf
from repro.query.schema import BadRecordError, Schema
from repro.systems.base import BaseSystem, scan_job


class HadoopSystem(BaseSystem):
    """Stock Hadoop MapReduce over stock HDFS."""

    name = "Hadoop"

    def _upload_pipeline(self) -> StandardUploadPipeline:
        return StandardUploadPipeline(self.hdfs, self.cost)

    def _make_jobconf(self, query, path: str, schema: Schema, emit) -> JobConf:
        parse_line = make_line_parser(query, schema)
        return scan_job(
            f"hadoop-{query.name}", path, TextInputFormat(),
            make_block_parser(query, schema, parse_line), parse_line, emit,
        )


def make_line_parser(query, schema: Schema):
    """The classic Hadoop map function's work on one text line, as ``parse(line) -> row``.

    The line is split at the schema delimiter, the attributes the query needs are parsed, the
    predicate is applied, and the projected attribute values come back as a typed tuple (so
    results are comparable across systems).  ``None`` means the row is dropped: it does not
    qualify or does not match the schema, as Bob's hand-written parser would skip it.

    This per-line form is the reference and the bad-record fallback of
    :func:`make_block_parser`.
    """
    clause_info, projection_info = _scan_columns(query, schema)
    delimiter = schema.delimiter
    expected_arity = len(schema.fields)

    def parse(line: str):
        parts = line.split(delimiter)
        if len(parts) != expected_arity:
            return None
        try:
            for clause, index, field in clause_info:
                if not clause.matches(field.parse(parts[index])):
                    return None
            return tuple(field.parse(parts[index]) for index, field in projection_info)
        except BadRecordError:
            return None

    return parse


def make_block_parser(query, schema: Schema, parse_line):
    """The block form of ``parse_line`` (:func:`make_line_parser`): one text block's rows, as
    a :class:`~repro.layouts.pax.ColumnBatch`.

    Filter first, column at a time.  Every line is split only through the first clause's
    column; that column is parsed and the kernels' scan table
    (:func:`~repro.engine.kernels.clause_positions`) keeps the qualifying lines.  Each later
    clause does the same over the survivors only.  Only the lines that pass every clause are
    arity-checked and split on through the last column the query reads, from the tail the
    earlier splits left (never re-splitting a head), before each projected column is parsed
    into one list.  No row tuple is built: the batch's consumer zips the columns if it wants
    rows.

    A wrong-arity line that fails the filter is dropped as ``parse_line`` drops it; one that
    passes is dropped by the survivors' arity check.  A token that does not parse, compare
    or exist raises out of whichever pass met it; the whole block then goes through
    ``parse_line`` line by line, which drops exactly the rows it always dropped, and its rows
    are transposed into the batch once.
    """
    clause_info, projection_info = _scan_columns(query, schema)
    delimiter = schema.delimiter
    # ``len(line.split(d)) == arity`` is ``line.count(d) == arity - 1``; knowing the arity
    # without the pieces lets the split stop after the last column the query reads.
    expected_delimiters = len(schema.fields) - 1
    last_read = max(
        [index for _, index, _ in clause_info] + [index for index, _ in projection_info],
        default=-1,
    )

    width = len(projection_info)

    def parse(scan: TextScanResult) -> ColumnBatch:
        lines = scan.lines
        # ``(first column, pieces per surviving line)``: each split runs on from the last
        # piece of the one before, the unsplit tail past column ``reach``.
        segments: list[tuple] = []
        reach = -1
        try:
            for clause, index, field in clause_info:
                reach = _split_through(segments, reach, index, lines, delimiter)
                values = list(map(field.ftype.parse_value, _tokens(segments, index)))
                keep = gatherer(clause_positions(clause, values))
                lines = keep(lines)
                segments = [(first, keep(pieces)) for first, pieces in segments]
                if not lines:
                    return ColumnBatch(([()] * width, 0))
            counts = list(map(str.count, lines, repeat(delimiter)))
            if counts.count(expected_delimiters) != len(counts):
                keep = gatherer([p for p, n in enumerate(counts) if n == expected_delimiters])
                lines = keep(lines)
                segments = [(first, keep(pieces)) for first, pieces in segments]
            _split_through(segments, reach, last_read, lines, delimiter)
            columns = [
                list(map(field.ftype.parse_value, _tokens(segments, index)))
                for index, field in projection_info
            ]
            return ColumnBatch((columns, len(lines)))
        except (ValueError, TypeError, IndexError):
            rows = [row for row in map(parse_line, scan.lines) if row is not None]
            return ColumnBatch.of_rows(rows, width)

    return parse


def _split_through(segments: list, reach: int, column: int, lines, delimiter: str) -> int:
    """Split the surviving lines on through ``column``; the new reach.

    The first split cuts each line (C-level ``str.split`` with a ``maxsplit``); a later one
    cuts only the tail the last segment left past ``reach``.  A line too short to have that
    tail raises ``IndexError``.
    """
    if column <= reach:
        return reach
    if segments:
        first, last = segments[-1]
        tails = map(itemgetter(reach + 1 - first), last)
    else:
        tails = lines
    cuts = repeat(column - reach)
    segments.append((reach + 1, list(map(str.split, tails, repeat(delimiter), cuts))))
    return column


def _tokens(segments: list, column: int):
    """Column ``column``'s tokens of the surviving lines, out of the segment that holds it."""
    for first, pieces in reversed(segments):
        if column >= first:
            return map(itemgetter(column - first), pieces)


def _scan_columns(query, schema: Schema) -> tuple[list, list]:
    """``(clause, column index, field)`` per clause and ``(column index, field)`` per output."""
    predicate = query.predicate
    clause_info = [
        (clause, clause.attribute_index(schema), schema.fields[clause.attribute_index(schema)])
        for clause in predicate.clauses
    ] if predicate is not None else []
    projection_names = query.projection if query.projection is not None else schema.field_names
    projection_info = [
        (schema.index_of(name), schema.field(name)) for name in projection_names
    ]
    return clause_info, projection_info
