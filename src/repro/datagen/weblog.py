"""A raw web-server-log generator that includes malformed rows.

HAIL parses every uploaded row against the user-provided schema and separates rows that do not
match ("bad records") into a special part of the block (Section 3.1); at query time bad records
are handed to the map function flagged as bad (Section 4.3).  This generator produces the raw
text lines — including a configurable fraction of malformed ones — used by the bad-record tests
and the log-analysis example.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.query.schema import FieldType, Schema

WEBLOG_SCHEMA = Schema.of(
    ("clientIP", FieldType.STRING),
    ("timestamp", FieldType.BIGINT),
    ("method", FieldType.STRING),
    ("url", FieldType.STRING),
    ("statusCode", FieldType.INT),
    ("responseBytes", FieldType.INT),
    name="WebLog",
    delimiter="|",
)

_METHODS = ["GET", "POST", "PUT", "DELETE", "HEAD"]
_PATHS = ["/index.html", "/search", "/cart", "/api/v1/items", "/login", "/static/app.js"]


@dataclass
class WebLogGenerator:
    """Deterministic generator of raw web-log lines, some of them malformed.

    Census keep list (``tests/test_census.py``): the only generator of bad lines.
    """

    seed: int = 11
    bad_record_rate: float = 0.01

    @property
    def schema(self) -> Schema:
        """The well-formed log schema."""
        return WEBLOG_SCHEMA

    def generate_lines(self, num_records: int) -> list[str]:
        """Generate raw text lines; ``bad_record_rate`` of them violate the schema."""
        rng = random.Random(self.seed)
        lines = []
        for _ in range(num_records):
            if rng.random() < self.bad_record_rate:
                lines.append(self._bad_line(rng))
            else:
                lines.append(WEBLOG_SCHEMA.format_record(self._record(rng)))
        return lines

    def generate(self, num_records: int) -> list[tuple]:
        """Generate only well-formed typed records (no bad rows)."""
        rng = random.Random(self.seed)
        return [self._record(rng) for _ in range(num_records)]

    # ------------------------------------------------------------------ internals
    def _record(self, rng: random.Random) -> tuple:
        return (
            ".".join(str(rng.randrange(1, 255)) for _ in range(4)),
            1_300_000_000 + rng.randrange(100_000_000),
            rng.choice(_METHODS),
            rng.choice(_PATHS),
            rng.choice([200, 200, 200, 301, 404, 500]),
            rng.randrange(100, 1_000_000),
        )

    def _bad_line(self, rng: random.Random) -> str:
        """A line that fails schema validation: wrong arity or an unparseable number."""
        if rng.random() < 0.5:
            return "corrupted-entry-without-delimiters"
        record = self._record(rng)
        tokens = WEBLOG_SCHEMA.format_record(record).replace("|GET|", "|G T|", 1).split("|")
        # The status code's own token: its digits may also occur inside the IP or timestamp.
        tokens[WEBLOG_SCHEMA.index_of("statusCode")] = "not-a-number"
        return "|".join(tokens)
