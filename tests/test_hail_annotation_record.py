"""Tests for the @HailQuery annotation machinery and HailRecord."""

from datetime import date

import pytest

from repro.datagen import USERVISITS_SCHEMA
from repro.hail.record import HailRecord
from repro.mapreduce import JobConf
from repro.query.annotation import (
    JOB_PROPERTY,
    HailQuery,
    annotation_of,
    hail_query,
    resolve_annotation,
)
from repro.query.predicate import Predicate


# --------------------------------------------------------------------------- annotation
def test_decorator_attaches_annotation():
    @hail_query(filter="@3 between(1999-01-01, 2000-01-01)", projection=["@1"])
    def mapper(key, value):
        return [(key, value)]

    annotation = annotation_of(mapper)
    assert annotation is not None
    predicate = annotation.bound_filter(USERVISITS_SCHEMA)
    assert predicate.attributes(USERVISITS_SCHEMA) == ["visitDate"]
    assert annotation.projection_names(USERVISITS_SCHEMA) == ["sourceIP"]


def test_annotation_with_typed_predicate_and_names():
    annotation = HailQuery(
        filter=Predicate.equals("sourceIP", "1.2.3.4"), projection=("searchWord", 9)
    )
    assert annotation.bound_filter(USERVISITS_SCHEMA).attributes(USERVISITS_SCHEMA) == ["sourceIP"]
    assert annotation.projection_names(USERVISITS_SCHEMA) == ["searchWord", "duration"]


def test_annotation_without_filter_or_projection():
    annotation = HailQuery()
    assert annotation.bound_filter(USERVISITS_SCHEMA) is None
    assert annotation.projection_names(USERVISITS_SCHEMA) is None


def test_resolve_annotation_prefers_map_function():
    @hail_query(filter="adRevenue >= 1")
    def mapper(key, value):
        return None

    conf = JobConf(name="j", input_path="/p", mapper=mapper)
    conf.properties[JOB_PROPERTY] = HailQuery(filter="adRevenue >= 99")
    resolved = resolve_annotation(conf)
    predicate = resolved.bound_filter(USERVISITS_SCHEMA)
    assert predicate.clauses[0].operands == (1.0,)


def test_resolve_annotation_from_job_properties():
    conf = JobConf(name="j", input_path="/p")
    assert resolve_annotation(conf) is None
    conf.properties[JOB_PROPERTY] = HailQuery(filter="duration >= 5")
    assert resolve_annotation(conf) is not None
    conf.properties[JOB_PROPERTY] = "not-an-annotation"
    with pytest.raises(TypeError):
        resolve_annotation(conf)


# --------------------------------------------------------------------------- HailRecord
def test_hail_record_full_projection_getters():
    values = (
        "1.2.3.4",
        "http://x",
        date(2000, 5, 6),
        12.5,
        "agent",
        "USA",
        "en",
        "word",
        42,
    )
    record = HailRecord(USERVISITS_SCHEMA, values)
    assert record.get(1) == "1.2.3.4"
    assert record.get_by_name("duration") == 42
    assert record.get_int(9) == 42
    assert record.get_float(4) == pytest.approx(12.5)
    assert record.get_string(8) == "word"
    assert record.get_date(3) == date(2000, 5, 6)
    assert record.as_tuple() == values
    assert not record.bad


def test_hail_record_projected_positions():
    record = HailRecord(USERVISITS_SCHEMA, ("word", 42), positions=(8, 9))
    assert record.get(8) == "word"
    assert record.get(9) == 42
    with pytest.raises(KeyError):
        record.get(1)


def test_hail_record_type_errors():
    record = HailRecord(USERVISITS_SCHEMA, ("word", 42), positions=(8, 9))
    with pytest.raises(TypeError):
        record.get_date(9)
    with pytest.raises(ValueError):
        HailRecord(USERVISITS_SCHEMA, ("a", "b"), positions=(1,))


def test_hail_record_bad_record_flag():
    record = HailRecord(USERVISITS_SCHEMA, (), positions=(), bad=True, raw_line="garbage")
    assert record.bad
    assert record.raw_line == "garbage"


def test_hail_record_equality_and_hash():
    a = HailRecord(USERVISITS_SCHEMA, ("w", 1), positions=(8, 9))
    b = HailRecord(USERVISITS_SCHEMA, ("w", 1), positions=(8, 9))
    c = HailRecord(USERVISITS_SCHEMA, ("w", 2), positions=(8, 9))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != "not-a-record"
