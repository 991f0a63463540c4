"""Tests for counters, job configuration, splits and the stock input format / record reader."""

import pytest

from repro.cluster import TransferLedger
from repro.hdfs import DataFile, HdfsClient, StandardUploadPipeline
from repro.mapreduce import (
    Counters,
    InputSplit,
    JobConf,
    MapTask,
    TextInputFormat,
    TextRecordReader,
)
from repro.mapreduce.job import identity_mapper
from repro.mapreduce.job_client import JobClient


@pytest.fixture
def loaded_hdfs(hdfs, cost_model, simple_schema, simple_records):
    """HDFS with /data/simple uploaded as three blocks of 20 rows."""
    pipeline = StandardUploadPipeline(hdfs, cost_model)
    client = HdfsClient(hdfs, cost_model, pipeline, client_node=0)
    client.upload(
        DataFile("/data/simple", simple_schema, list(simple_records)), rows_per_block=20
    )
    return hdfs


# --------------------------------------------------------------------------- counters
def test_counters_increment_and_merge():
    a = Counters()
    a.increment("X")
    a.increment("X", 2)
    b = Counters()
    b.increment("X", 5)
    b.increment("Y")
    a.merge(b)
    assert a.value("X") == 8
    assert a.value("Y") == 1
    assert a.value("missing") == 0
    assert dict(a) == {"X": 8, "Y": 1}


def test_counters_increment_with_attribute_adds_the_slice_too():
    counters = Counters()
    counters.increment("X", 2.5, attribute="f1")
    counters.increment("X", attribute="f2")
    counters.increment("X", 4, attribute=None)
    assert dict(counters) == {"X": 7.5, "X[f1]": 2.5, "X[f2]": 1}
    assert counters.by_attribute("X") == {"f1": 2.5, "f2": 1}
    assert Counters.per_attribute("X", "f1") == "X[f1]"


def test_every_counter_constant_is_declared_exactly_once():
    from repro.mapreduce.counters import DECLARED

    constants = {name: value for name, value in vars(Counters).items() if name.isupper()}
    assert set(constants) == set(DECLARED)
    assert all(value == name for name, value in constants.items())
    assert all(spec.name == name and spec.doc.endswith(".") for name, spec in DECLARED.items())
    assert {spec.unit for spec in DECLARED.values()} == {"count", "seconds", "bytes"}
    for name, spec in DECLARED.items():
        if name.endswith("_SECONDS"):
            assert spec.unit == "seconds", name
        elif "BYTES" in name:
            assert spec.unit == "bytes", name
        else:
            assert spec.unit == "count", name
    assert not hasattr(Counters, "BAD_RECORDS")  # declared, never counted: deleted


def test_every_counter_a_busy_session_produced_is_declared(busy_session):
    from repro.mapreduce.counters import DECLARED

    _, jobs = busy_session
    seen = {name for _, result in jobs for name, _ in result.job.counters}
    assert len(seen) > 20
    assert {name for name in seen if not name.endswith("]")} <= set(DECLARED)
    assert {name.partition("[")[0] for name in seen if name.endswith("]")} <= set(DECLARED)


# --------------------------------------------------------------------------- job conf
def test_jobconf_defaults():
    conf = JobConf(name="j", input_path="/p")
    assert conf.properties == {}
    assert conf.mapper is identity_mapper


def test_identity_mapper_passthrough():
    assert list(identity_mapper("k", "v")) == [("k", "v")]


# --------------------------------------------------------------------------- splits
def test_input_split_accessors():
    split = InputSplit(split_id=0, path="/p", block_ids=(1, 2, 3), locations=(0, 1), length_bytes=10)
    assert split.num_blocks == 3
    assert split.preferred_replicas == {}


def test_text_input_format_one_split_per_block(loaded_hdfs, cost_model):
    conf = JobConf(name="j", input_path="/data/simple", input_format=TextInputFormat())
    splits = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)
    assert len(splits) == 3
    assert all(split.num_blocks == 1 for split in splits)
    assert all(len(split.locations) == 3 for split in splits)
    assert conf.input_format.split_phase_cost(loaded_hdfs, conf, cost_model, 3) == 0.0


def test_stock_formats_share_the_default_split_policy(loaded_hdfs, cost_model):
    """Text and Hadoop++ formats inherit one split per block at the alive replica hosts."""
    from repro.baselines.hadoopplusplus import TrojanInputFormat

    formats = (TextInputFormat(), TrojanInputFormat())
    assert all("get_splits" not in vars(type(fmt)) for fmt in formats)
    loaded_hdfs.cluster.kill_node(1)
    try:
        text, trojan = (
            fmt.get_splits(loaded_hdfs, JobConf(name="j", input_path="/data/simple"), cost_model)
            for fmt in formats
        )
    finally:
        loaded_hdfs.cluster.revive_all()
    assert text == trojan
    assert [split.split_id for split in text] == [0, 1, 2]
    assert all(split.num_blocks == 1 and 1 not in split.locations for split in text)


def test_job_client_defaults_to_text_input_format(loaded_hdfs, cost_model):
    conf = JobConf(name="j", input_path="/data/simple")
    plan = JobClient(loaded_hdfs, cost_model).compute_splits(conf)
    assert plan.num_blocks == 3
    assert len(plan.splits) == 3
    assert isinstance(conf.input_format, TextInputFormat)


def test_job_client_rejects_non_input_format(loaded_hdfs, cost_model):
    conf = JobConf(name="j", input_path="/data/simple", input_format="not-an-input-format")
    with pytest.raises(TypeError):
        JobClient(loaded_hdfs, cost_model).compute_splits(conf)


# --------------------------------------------------------------------------- record reader
def test_text_record_reader_emits_all_lines(loaded_hdfs, cost_model, simple_schema, simple_records):
    conf = JobConf(name="j", input_path="/data/simple", input_format=TextInputFormat())
    splits = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)
    seen = []
    for split in splits:
        reader = TextRecordReader(split, loaded_hdfs, cost_model, node_id=split.locations[0])
        for offset, line in reader:
            seen.append(simple_schema.parse_line(line))
        assert reader.read_seconds > 0
        assert reader.bytes_read > 0
        assert not reader.used_index
    assert seen == list(simple_records)


def test_text_record_reader_prefers_local_replica(loaded_hdfs, cost_model):
    conf = JobConf(name="j", input_path="/data/simple", input_format=TextInputFormat())
    split = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)[0]
    local_node = split.locations[0]
    remote_node = next(n for n in range(4) if n not in split.locations)
    local_reader = TextRecordReader(split, loaded_hdfs, cost_model, node_id=local_node)
    remote_reader = TextRecordReader(split, loaded_hdfs, cost_model, node_id=remote_node)
    list(local_reader)
    list(remote_reader)
    assert remote_reader.read_seconds > local_reader.read_seconds


def test_text_record_reader_rejects_non_text_payloads(loaded_hdfs, cost_model, simple_schema):
    from repro.hail.hail_block import HailBlock
    from repro.hdfs.block import Replica

    block_id = loaded_hdfs.namenode.file_blocks("/data/simple")[0]
    datanode_id = loaded_hdfs.namenode.block_datanodes(block_id)[0]
    hail_block = HailBlock.build(simple_schema, [(1, "a", 1.0)], sort_attribute="id")
    loaded_hdfs.datanode(datanode_id).store_replica(
        Replica(block_id=block_id, datanode_id=datanode_id, payload=hail_block)
    )
    split = InputSplit(0, "/data/simple", (block_id,), (datanode_id,))
    reader = TextRecordReader(split, loaded_hdfs, cost_model, node_id=datanode_id)
    with pytest.raises(TypeError):
        list(reader)


# --------------------------------------------------------------------------- map task
def test_map_task_runs_mapper_and_counts(loaded_hdfs, cost_model):
    def mapper(key, line):
        parts = line.split("|")
        if int(parts[0]) % 2 == 0:
            return [(parts[0], 1)]
        return None

    conf = JobConf(name="j", input_path="/data/simple", mapper=mapper, input_format=TextInputFormat())
    split = conf.input_format.get_splits(loaded_hdfs, conf, cost_model)[0]
    counters = Counters()
    task = MapTask(task_id=0, split=split, jobconf=conf)
    result = task.run(loaded_hdfs, cost_model, node_id=split.locations[0], counters=counters)
    assert result.records_read == 20
    assert len(result.output) == 10
    assert counters.value(Counters.MAP_INPUT_RECORDS) == 20
    assert counters.value(Counters.MAP_OUTPUT_RECORDS) == 10
    assert counters.value(Counters.FULL_SCANS) == 1
    assert result.compute_seconds >= result.record_reader_s
