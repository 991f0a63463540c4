"""UserVisits data generator (Pavlo et al., SIGMOD 2009 — reference [27] of the paper).

The schema and the value distributions are chosen so that Bob's five queries (Section 6.2) hit
approximately the selectivities the paper reports:

- ``visitDate`` is uniform over a 32-year window starting 1992-01-01, so one calendar year
  (Bob-Q1) selects about 3.1% of the records;
- ``adRevenue`` is uniform in [0, 500), so [1, 10] (Bob-Q4) selects ~1.8% and [1, 100]
  (Bob-Q5) ~19.8%;
- ``sourceIP`` is random, with the probe IP ``172.101.11.46`` injected at a small configurable
  rate so the highly selective Bob-Q2/Q3 return a handful of rows even at laptop scale (the
  paper's 3.2e-8 selectivity cannot be realised on a few thousand functional rows); a quarter of
  the injected rows additionally carry ``visitDate = 1992-12-22`` so that Bob-Q3's conjunction
  is non-empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta

from repro.layouts.schema import FieldType, Schema

#: The UserVisits schema; attribute positions (@1, @3, ...) match Bob's annotations.
USERVISITS_SCHEMA = Schema.of(
    ("sourceIP", FieldType.STRING),
    ("destURL", FieldType.STRING),
    ("visitDate", FieldType.DATE),
    ("adRevenue", FieldType.DOUBLE),
    ("userAgent", FieldType.STRING),
    ("countryCode", FieldType.STRING),
    ("languageCode", FieldType.STRING),
    ("searchWord", FieldType.STRING),
    ("duration", FieldType.INT),
    name="UserVisits",
    delimiter="|",
)

#: The probe IP used by Bob-Q2 and Bob-Q3.
PROBE_SOURCE_IP = "172.101.11.46"
#: The probe date used by Bob-Q3.
PROBE_VISIT_DATE = date(1992, 12, 22)

_COUNTRIES = ["USA", "DEU", "FRA", "BRA", "IND", "CHN", "JPN", "GBR", "TUR", "MEX"]
_LANGUAGES = ["en", "de", "fr", "pt", "hi", "zh", "ja", "es", "tr", "it"]
_WORDS = [
    "elephant", "hadoop", "index", "aggressive", "mapreduce", "saarland", "replica",
    "cluster", "query", "upload", "pipeline", "block", "shuffle", "trojan", "pax",
]
# Realistic (long) user-agent strings: strings dominate the UserVisits record, which is why its
# binary PAX representation is roughly the same size as the text form (unlike the all-integer
# Synthetic dataset, where binary conversion shrinks the data substantially).
_AGENTS = [
    "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/535.1 (KHTML, like Gecko) Chrome/14",
    "Mozilla/5.0 (X11; Linux x86_64; rv:7.0.1) Gecko/20100101 Firefox/7.0.1",
    "Mozilla/4.0 (compatible; MSIE 8.0; Windows NT 5.1; Trident/4.0; .NET CLR 2.0)",
    "Opera/9.80 (Windows NT 6.1; U; en) Presto/2.9.168 Version/11.51",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_7_1) AppleWebKit/534.48.3 Safari/534.48.3",
]

_DATE_WINDOW_START = date(1992, 1, 1)
_DATE_WINDOW_DAYS = 32 * 365


@dataclass
class UserVisitsGenerator:
    """Deterministic pseudo-random generator of UserVisits records."""

    seed: int = 42
    probe_ip_rate: float = 1.0 / 4096.0
    ad_revenue_max: float = 500.0

    @property
    def schema(self) -> Schema:
        """The UserVisits schema."""
        return USERVISITS_SCHEMA

    def generate(self, num_records: int) -> list[tuple]:
        """Generate ``num_records`` typed UserVisits records."""
        rng = random.Random(self.seed)
        records = []
        for _ in range(num_records):
            records.append(self._record(rng))
        return records

    # ------------------------------------------------------------------ internals
    def _record(self, rng: random.Random) -> tuple:
        probe = rng.random() < self.probe_ip_rate
        source_ip = PROBE_SOURCE_IP if probe else self._ip(rng)
        if probe and rng.random() < 0.25:
            visit_date = PROBE_VISIT_DATE
        else:
            visit_date = _DATE_WINDOW_START + timedelta(days=rng.randrange(_DATE_WINDOW_DAYS))
        ad_revenue = round(rng.uniform(0.0, self.ad_revenue_max), 2)
        word = rng.choice(_WORDS)
        return (
            source_ip,
            f"http://example.org/{word}/{rng.randrange(100000)}",
            visit_date,
            ad_revenue,
            rng.choice(_AGENTS),
            rng.choice(_COUNTRIES),
            rng.choice(_LANGUAGES),
            word,
            rng.randrange(1, 100),
        )

    @staticmethod
    def _ip(rng: random.Random) -> str:
        return ".".join(str(rng.randrange(1, 255)) for _ in range(4))
