"""Stock Hadoop: text uploads, full-scan queries.

This is the paper's primary baseline.  Uploads go through the standard HDFS pipeline
(byte-identical text replicas); queries are MapReduce jobs whose map function splits each text
line into attributes, applies the selection predicate and emits the projected attributes —
i.e. the "MAP FUNCTION FOR HADOOP MAPREDUCE" pseudo-code of Section 4.1.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

from repro.engine.executor import TextScanResult, clause_mask
from repro.hdfs.pipeline import StandardUploadPipeline
from repro.layouts.schema import BadRecordError, Schema
from repro.mapreduce.input_format import TextInputFormat
from repro.mapreduce.job import JobConf
from repro.systems.base import BaseSystem


class HadoopSystem(BaseSystem):
    """Stock Hadoop MapReduce over stock HDFS."""

    name = "Hadoop"

    def _upload_pipeline(self) -> StandardUploadPipeline:
        return StandardUploadPipeline(self.hdfs, self.cost)

    def _make_jobconf(self, query, path: str, schema: Schema) -> JobConf:
        mapper = make_scan_mapper(query, schema)
        return JobConf(
            name=f"hadoop-{query.name}",
            input_path=path,
            mapper=mapper,
            map_batch=make_scan_map_batch(query, schema, mapper),
            input_format=TextInputFormat(),
        )


def make_scan_mapper(query, schema: Schema):
    """Build the classic Hadoop map function for a selection/projection query.

    The function receives ``(byte offset, text line)``, splits the line at the schema delimiter,
    parses the attributes it needs, applies the predicate and emits the projected attribute
    values as a typed tuple (so results are comparable across systems).  Rows that do not match
    the schema are skipped, mirroring what Bob's hand-written parser would do.

    This per-record form is the reference; :func:`make_scan_map_batch` is its block form.
    """
    clause_info, projection_info = _scan_columns(query, schema)
    delimiter = schema.delimiter
    expected_arity = len(schema.fields)

    def mapper(key, line: str):
        parts = line.split(delimiter)
        if len(parts) != expected_arity:
            return None
        try:
            for clause, index, field in clause_info:
                if not clause.matches(field.parse(parts[index])):
                    return None
            projected = tuple(field.parse(parts[index]) for index, field in projection_info)
        except BadRecordError:
            return None
        return [(None, projected)]

    return mapper


def make_scan_map_batch(query, schema: Schema, mapper):
    """The block form of :func:`make_scan_mapper`'s ``mapper``: one text block per call.

    Column at a time: split the lines of the right arity, then per clause parse that one
    column of the surviving rows and filter them with one comprehension
    (:func:`~repro.engine.executor.clause_mask`), then parse each projected column of the
    survivors and ``zip`` the columns into tuples.  A token that does not parse (or compare)
    raises out of whichever column pass met it; the whole block then goes through ``mapper``
    line by line, which drops exactly the rows it always dropped.
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

    def map_batch(scan: TextScanResult) -> list:
        rows = [
            line.split(delimiter, last_read + 1)
            for line in scan.lines
            if line.count(delimiter) == expected_delimiters
        ]
        try:
            for clause, index, field in clause_info:
                values = list(map(field.ftype.parse_value, map(itemgetter(index), rows)))
                rows = list(compress(rows, clause_mask(clause, values)))
            columns = [
                map(field.ftype.parse_value, map(itemgetter(index), rows))
                for index, field in projection_info
            ]
            projected = list(zip(*columns)) if columns else [()] * len(rows)
        except (ValueError, TypeError):
            return [pair for line in scan.lines for pair in mapper(None, line) or ()]
        return [(None, values) for values in projected]

    return map_batch


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
