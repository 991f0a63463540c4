"""The row-oriented text layout of stock HDFS uploads.

Stock Hadoop stores uploaded files verbatim as text; its RecordReader later splits lines and
attributes at query time.  HAIL and the Hadoop++ baseline both store the binary PAX blocks of
:mod:`repro.layouts.pax`; Hadoop++ marks its blocks ``pax_layout=False``, so a scan reads whole
rows (every column) as a binary row layout would.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.query.schema import BadRecordError, Schema


class TextRowCodec:
    """Encode/decode records as delimiter-separated text lines."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def encode(self, records: Iterable[Sequence]) -> str:
        """Format records as newline-separated text (the payload of a stock HDFS block)."""
        return "\n".join(self.schema.format_records(records))

    def decode(self, text: str) -> list[tuple]:
        """Parse newline-separated text into typed records; bad rows raise.

        Records are delimited by ``\\n`` only, matching Hadoop's TextInputFormat (other Unicode
        line separators are ordinary characters inside a field).
        """
        return [self.schema.parse_line(line) for line in text.split("\n") if line]

    def decode_lenient(self, text: str) -> tuple[list[tuple], list[str]]:
        """Parse text, separating parseable records from bad records.

        Returns ``(records, bad_lines)`` — the split HAIL performs at upload time.
        """
        records: list[tuple] = []
        bad: list[str] = []
        for line in text.split("\n"):
            if not line:
                continue
            try:
                records.append(self.schema.parse_line(line))
            except BadRecordError:
                bad.append(line)
        return records, bad

    def size_bytes(self, records: Iterable[Sequence]) -> int:
        """Total text size (bytes, including newlines) of the given records."""
        return sum(self.schema.text_size(record) for record in records)
