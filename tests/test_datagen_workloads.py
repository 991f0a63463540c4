"""Tests for the dataset generators and the workload definitions."""

from datetime import date

import pytest

from repro.datagen import (
    SYNTHETIC_SCHEMA,
    USERVISITS_SCHEMA,
    WEBLOG_SCHEMA,
    SyntheticGenerator,
    UserVisitsGenerator,
    WebLogGenerator,
)
from repro.datagen.uservisits import PROBE_SOURCE_IP, PROBE_VISIT_DATE
from repro.layouts.schema import BadRecordError
from repro.workloads import Workload, bob_queries, bob_workload, synthetic_queries, synthetic_workload


# --------------------------------------------------------------------------- UserVisits
def test_uservisits_schema_matches_paper_positions():
    # Bob's annotations: @1 = sourceIP, @3 = visitDate.
    assert USERVISITS_SCHEMA.field_at_position(1).name == "sourceIP"
    assert USERVISITS_SCHEMA.field_at_position(3).name == "visitDate"
    assert len(USERVISITS_SCHEMA) == 9


def test_uservisits_generator_is_deterministic_and_valid():
    a = UserVisitsGenerator(seed=5).generate(200)
    b = UserVisitsGenerator(seed=5).generate(200)
    c = UserVisitsGenerator(seed=6).generate(200)
    assert a == b
    assert a != c
    for record in a[:50]:
        assert len(record) == len(USERVISITS_SCHEMA)
        assert isinstance(record[2], date)
        assert 0.0 <= record[3] <= 500.0


def test_uservisits_probe_ip_is_injected():
    rows = UserVisitsGenerator(seed=7, probe_ip_rate=1 / 100).generate(2000)
    probes = [r for r in rows if r[0] == PROBE_SOURCE_IP]
    assert probes
    assert any(r[2] == PROBE_VISIT_DATE for r in probes)


def test_uservisits_selectivities_roughly_match_paper():
    rows = UserVisitsGenerator(seed=11).generate(20000)
    q1 = sum(1 for r in rows if date(1999, 1, 1) <= r[2] <= date(2000, 1, 1)) / len(rows)
    q4 = sum(1 for r in rows if 1.0 <= r[3] <= 10.0) / len(rows)
    q5 = sum(1 for r in rows if 1.0 <= r[3] <= 100.0) / len(rows)
    assert 0.02 < q1 < 0.05       # paper: 3.1e-2
    assert 0.01 < q4 < 0.03       # paper: 1.7e-2
    assert 0.15 < q5 < 0.25       # paper: 2.04e-1


def test_uservisits_text_lines_parse_back():
    for record in UserVisitsGenerator(seed=3).generate(20):
        assert USERVISITS_SCHEMA.parse_line(USERVISITS_SCHEMA.format_record(record)) == record


# --------------------------------------------------------------------------- Synthetic
def test_synthetic_generator_shape_and_determinism():
    rows = SyntheticGenerator(seed=2).generate(300)
    assert rows == SyntheticGenerator(seed=2).generate(300)
    assert all(len(r) == 19 for r in rows)
    assert all(isinstance(v, int) for r in rows[:20] for v in r)
    assert len(SYNTHETIC_SCHEMA) == 19


# --------------------------------------------------------------------------- WebLog
def test_weblog_generator_produces_bad_records():
    generator = WebLogGenerator(seed=1, bad_record_rate=0.2)
    lines = generator.generate_lines(500)
    bad = 0
    for line in lines:
        try:
            WEBLOG_SCHEMA.parse_line(line)
        except Exception:
            bad += 1
    assert 0.1 < bad / len(lines) < 0.3
    clean = generator.generate(50)
    assert all(WEBLOG_SCHEMA.parse_line(WEBLOG_SCHEMA.format_record(r)) == r for r in clean)


def test_every_bad_weblog_line_fails_to_parse():
    # Seed 5 draws status codes whose digits also occur earlier in the IP or the timestamp.
    lines = WebLogGenerator(seed=5, bad_record_rate=1.0).generate_lines(2000)
    status = WEBLOG_SCHEMA.index_of("statusCode")
    for line in lines:
        with pytest.raises(BadRecordError):
            WEBLOG_SCHEMA.parse_line(line)
        tokens = line.split(WEBLOG_SCHEMA.delimiter)
        assert len(tokens) == 1 or tokens[status] == "not-a-number"


# --------------------------------------------------------------------------- workloads
def test_bob_queries_match_paper_definitions():
    queries = bob_queries()
    assert [q.name for q in queries] == ["Bob-Q1", "Bob-Q2", "Bob-Q3", "Bob-Q4", "Bob-Q5"]
    assert queries[0].filter_attributes() == ("visitDate",)
    assert queries[1].filter_attributes() == ("sourceIP",)
    assert queries[2].filter_attributes() == ("sourceIP", "visitDate")
    assert queries[3].filter_attributes() == ("adRevenue",)
    assert queries[0].projection == ("sourceIP",)
    assert queries[4].projection == ("searchWord", "duration", "adRevenue")
    assert queries[1].selectivity == pytest.approx(3.2e-8)
    assert all("SELECT" in q.description for q in queries)


def test_synthetic_queries_match_table_1():
    queries = synthetic_queries()
    assert [q.name for q in queries] == [
        "Syn-Q1a", "Syn-Q1b", "Syn-Q1c", "Syn-Q2a", "Syn-Q2b", "Syn-Q2c",
    ]
    assert [len(q.projection) for q in queries] == [19, 9, 1, 19, 9, 1]
    assert [q.selectivity for q in queries] == [0.10, 0.10, 0.10, 0.01, 0.01, 0.01]
    # All Synthetic queries filter on the same attribute (the point of the workload).
    assert {q.filter_attributes() for q in queries} == {("f1",)}


def test_synthetic_queries_realise_their_selectivity_on_generated_rows():
    rows = SyntheticGenerator(seed=2).generate(20000)
    for query in synthetic_queries():
        measured = sum(query.predicate.matches(row, SYNTHETIC_SCHEMA) for row in rows) / len(rows)
        # 20 000 uniform rows: within about four standard deviations of the stated selectivity.
        assert measured == pytest.approx(query.selectivity, rel=0.2), query.name


def test_workload_definitions():
    bob = bob_workload()
    synthetic = synthetic_workload()
    assert isinstance(bob, Workload) and isinstance(synthetic, Workload)
    assert bob.hail_index_attributes == ("visitDate", "sourceIP", "adRevenue")
    assert bob.trojan_attribute == "sourceIP"
    assert synthetic.trojan_attribute == "f1"
    assert len(bob.generate(50)) == 50
    assert len(synthetic.generate(50, seed=3)) == 50
    assert bob.schema.name == "UserVisits"
