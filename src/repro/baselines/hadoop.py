"""Stock Hadoop: text uploads, full-scan queries.

This is the paper's primary baseline.  Uploads go through the standard HDFS pipeline
(byte-identical text replicas); queries are MapReduce jobs whose map function splits each text
line into attributes, applies the selection predicate and emits the projected attributes —
i.e. the "MAP FUNCTION FOR HADOOP MAPREDUCE" pseudo-code of Section 4.1.
"""

from __future__ import annotations

from operator import itemgetter

from repro.engine.executor import TextScanResult
from repro.engine.kernels import clause_positions
from repro.hdfs.pipeline import StandardUploadPipeline
from repro.layouts.pax import gatherer
from repro.layouts.schema import BadRecordError, Schema
from repro.mapreduce.input_format import TextInputFormat
from repro.mapreduce.job import JobConf
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
    """The block form of ``parse_line`` (:func:`make_line_parser`): one text block's rows.

    Column at a time: split the lines of the right arity, then per clause parse that one
    column of the surviving rows and keep the ones the kernels' scan table selects
    (:func:`~repro.engine.kernels.clause_positions`), then parse each projected column of the
    survivors and ``zip`` the columns into tuples.  A token that does not parse (or compare)
    raises out of whichever column pass met it; the whole block then goes through
    ``parse_line`` line by line, which drops exactly the rows it always dropped.
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

    def parse(scan: TextScanResult) -> list:
        rows = [
            line.split(delimiter, last_read + 1)
            for line in scan.lines
            if line.count(delimiter) == expected_delimiters
        ]
        try:
            for clause, index, field in clause_info:
                values = list(map(field.ftype.parse_value, map(itemgetter(index), rows)))
                rows = gatherer(clause_positions(clause, values))(rows)
            columns = [
                map(field.ftype.parse_value, map(itemgetter(index), rows))
                for index, field in projection_info
            ]
            return list(zip(*columns)) if columns else [()] * len(rows)
        except (ValueError, TypeError):
            return [row for row in map(parse_line, scan.lines) if row is not None]

    return parse


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
