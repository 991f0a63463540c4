"""Edge-case tests for the HAIL record reader and job execution paths."""

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import WebLogGenerator
from repro.hail.config import HailConfig
from repro.hail.input_format import HailInputFormat
from repro.hail.system import HailSystem
from repro.mapreduce import JobConf
from repro.query.annotation import JOB_PROPERTY, HailQuery
from repro.query.predicate import Operator, Predicate, Query


def _cost():
    return CostModel(CostParameters(enable_variance=False))


@pytest.fixture(scope="module")
def weblog_system():
    """A HAIL deployment of a raw web log that contains malformed rows."""
    generator = WebLogGenerator(seed=19, bad_record_rate=0.05)
    lines = generator.generate_lines(800)
    schema = generator.schema
    system = HailSystem(
        Cluster.homogeneous(4, seed=8),
        config=HailConfig.for_attributes(["statusCode", "responseBytes"], functional_partition_size=2),
        cost=_cost(),
    )
    system.upload("/weblog", [], schema, rows_per_block=200, raw_lines=lines)
    return system, generator, lines


def test_bad_records_are_separated_and_counted(weblog_system):
    system, generator, lines = weblog_system
    schema = generator.schema
    total_bad = 0
    for block_id in system.hdfs.namenode.file_blocks("/weblog"):
        datanode_id = system.hdfs.namenode.block_datanodes(block_id)[0]
        payload = system.hdfs.read_replica(block_id, datanode_id).payload
        total_bad += len(payload.bad_lines)
    expected_bad = 0
    for line in lines:
        try:
            schema.parse_line(line)
        except Exception:
            expected_bad += 1
    assert total_bad == expected_bad > 0


def test_bad_records_are_passed_to_the_map_function_flagged(weblog_system):
    system, generator, lines = weblog_system
    seen_bad = []

    def mapper(key, record):
        if record.bad:
            seen_bad.append(record.raw_line)
            return None
        return [(None, record.get_by_name("statusCode"))]

    conf = JobConf(
        name="errors",
        input_path="/weblog",
        mapper=mapper,
        input_format=HailInputFormat(system.config),
    )
    conf.properties[JOB_PROPERTY] = HailQuery(
        filter=Predicate.equals("statusCode", 500), projection=("statusCode",)
    )
    result = system.run_job(conf)
    assert all(status == 500 for status in result.records)
    assert len(seen_bad) > 0
    assert result.counters.value("MAP_INPUT_RECORDS") >= len(result.records) + len(seen_bad)


def test_query_on_indexed_numeric_attribute(weblog_system):
    system, generator, lines = weblog_system
    schema = generator.schema
    query = Query(
        name="large-responses",
        predicate=Predicate.comparison("responseBytes", Operator.GE, 900_000),
        projection=("clientIP", "responseBytes"),
        description="responses of at least 900 kB",
    )
    result = system.run_query(query, "/weblog")
    expected = []
    for line in lines:
        try:
            record = schema.parse_line(line)
        except Exception:
            continue
        if record[5] >= 900_000:
            expected.append((record[0], record[5]))
    assert sorted(result.records) == sorted(expected)
    assert result.job.counters.value("INDEX_SCANS") > 0


def test_remote_index_replica_read_when_local_copy_missing(weblog_system):
    """A map task scheduled on a node without any replica still reads the indexed one remotely."""
    system, generator, _ = weblog_system
    from repro.hail.record_reader import HailRecordReader
    from repro.mapreduce.split import InputSplit

    block_id = system.hdfs.namenode.file_blocks("/weblog")[0]
    hosts = set(system.hdfs.namenode.block_datanodes(block_id))
    remote_node = next(n.node_id for n in system.cluster.nodes if n.node_id not in hosts)

    conf = JobConf(name="remote", input_path="/weblog", input_format=HailInputFormat(system.config))
    conf.properties[JOB_PROPERTY] = HailQuery(
        filter=Predicate.equals("statusCode", 404), projection=("statusCode",)
    )
    conf.input_format.get_splits(system.hdfs, conf, system.cost)  # binds the job's query
    split = InputSplit(0, "/weblog", (block_id,), (remote_node,))
    reader = HailRecordReader(
        split, system.hdfs, system.cost, remote_node, conf.input_format.plan
    )
    records = [record for _, record in reader if not record.bad]
    assert all(record.get_by_name("statusCode") == 404 for record in records)
    assert [plan.uses_index for plan in reader.block_plans] == [True]
    assert reader.read_seconds > 0


def test_reader_rejects_text_replicas():
    """Running a HAIL job over a dataset uploaded with stock Hadoop fails loudly."""
    from repro.baselines import HadoopSystem
    from repro.datagen import UserVisitsGenerator

    generator = UserVisitsGenerator(seed=3)
    rows = generator.generate(100)
    hadoop = HadoopSystem(Cluster.homogeneous(4, seed=1), cost=_cost())
    hadoop.upload("/uv", rows, generator.schema, rows_per_block=50)

    conf = JobConf(
        name="wrong-layout",
        input_path="/uv",
        mapper=lambda key, record: None,
        input_format=HailInputFormat(HailConfig()),
    )
    conf.properties[JOB_PROPERTY] = HailQuery(filter=Predicate.equals("sourceIP", "1.2.3.4"))
    with pytest.raises(TypeError):
        hadoop.run_job(conf)


def test_a_block_with_no_alive_replica_fails_the_query_by_name():
    """Every holder of a block dead: the split phase plans it on no replica (datanode -1), and
    the reader re-plans it instead of looking node -1 up, so the job raises the HDFS error."""
    from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
    from repro.hdfs.errors import ReplicaNotFoundError
    from repro.workloads import bob_queries

    system = HailSystem(
        Cluster.homogeneous(5, seed=5),
        config=HailConfig.for_attributes(("visitDate", "sourceIP", "adRevenue")),
        cost=_cost(),
    )
    system.upload("/uv", UserVisitsGenerator(seed=9).generate(400), USERVISITS_SCHEMA, 100)
    block_id = system.hdfs.namenode.file_blocks("/uv")[0]
    for host in system.hdfs.namenode.block_datanodes(block_id):
        system.cluster.kill_node(host)
    with pytest.raises(ReplicaNotFoundError, match=f"block {block_id}"):
        system.run_query(bob_queries()[0], "/uv")
