"""Tests for the namenode (Dir_block, Dir_rep) and datanodes."""

import pytest

from repro.hail.replica_info import HailBlockReplicaInfo
from repro.hdfs import DataNode, LogicalBlock, NameNode, Replica, TextBlockPayload
from repro.hdfs.errors import (
    BlockNotFoundError,
    FileAlreadyExistsError,
    FileNotFoundInHdfsError,
    ReplicaNotFoundError,
)


def _block(schema, records, path="/f"):
    return LogicalBlock(
        block_id=-1, path=path, records=list(records), schema=schema, text_size_bytes=100
    )


@pytest.fixture
def namenode(small_cluster):
    return NameNode(small_cluster, replication=3)


def test_namespace_create_and_delete(namenode):
    namenode.create_file("/a")
    assert namenode.file_exists("/a")
    assert namenode.list_files() == ["/a"]
    with pytest.raises(FileAlreadyExistsError):
        namenode.create_file("/a")
    namenode.delete_file("/a")
    assert not namenode.file_exists("/a")
    with pytest.raises(FileNotFoundInHdfsError):
        namenode.delete_file("/a")
    with pytest.raises(FileNotFoundInHdfsError):
        namenode.file_blocks("/a")


def test_allocate_block_requires_file(namenode, simple_schema, simple_records):
    with pytest.raises(FileNotFoundInHdfsError):
        namenode.allocate_block("/missing", _block(simple_schema, simple_records))


def test_allocate_and_register_replicas(namenode, simple_schema, simple_records):
    namenode.create_file("/f")
    block_id, pipeline = namenode.allocate_block(
        "/f", _block(simple_schema, simple_records), client_node=1
    )
    assert len(pipeline) == 3
    assert pipeline[0] == 1
    assert namenode.file_blocks("/f") == [block_id]
    for datanode_id in pipeline:
        namenode.register_replica(block_id, datanode_id)
    assert sorted(namenode.block_datanodes(block_id)) == sorted(pipeline)
    assert namenode.logical_block(block_id).records == simple_records


def test_register_replica_unknown_block(namenode):
    with pytest.raises(BlockNotFoundError):
        namenode.register_replica(123, 0)
    with pytest.raises(BlockNotFoundError):
        namenode.block_datanodes(123)
    with pytest.raises(BlockNotFoundError):
        namenode.logical_block(123)


def test_block_locations_filter_dead_nodes(namenode, small_cluster, simple_schema, simple_records):
    namenode.create_file("/f")
    block_id, pipeline = namenode.allocate_block(
        "/f", _block(simple_schema, simple_records), client_node=0
    )
    for datanode_id in pipeline:
        namenode.register_replica(block_id, datanode_id)
    small_cluster.kill_node(pipeline[1])
    locations = namenode.block_locations("/f")
    assert pipeline[1] not in locations[0].hosts
    all_locations = namenode.block_locations("/f", alive_only=False)
    assert pipeline[1] in all_locations[0].hosts
    small_cluster.revive_all()


def test_dir_rep_and_hosts_with_index(namenode, simple_schema, simple_records):
    namenode.create_file("/f")
    block_id, pipeline = namenode.allocate_block(
        "/f", _block(simple_schema, simple_records), client_node=0
    )
    attributes = ["id", "name", None]
    for datanode_id, attribute in zip(pipeline, attributes):
        info = None
        if attribute is not None:
            info = HailBlockReplicaInfo(
                datanode_id=datanode_id, sort_attribute=attribute, indexed_attribute=attribute
            )
        namenode.register_replica(block_id, datanode_id, replica_info=info)
    assert namenode.hosts_with_index(block_id, "id") == [pipeline[0]]
    assert namenode.hosts_with_index(block_id, "name") == [pipeline[1]]
    assert namenode.hosts_with_index(block_id, "score") == []
    assert namenode.replica_info(block_id, pipeline[2]) is None
    infos = namenode.replica_infos(block_id)
    assert set(infos) == {pipeline[0], pipeline[1]}
    assert namenode.describe()["dir_rep_entries"] == 2


def test_delete_file_clears_dir_rep(namenode, simple_schema, simple_records):
    namenode.create_file("/f")
    block_id, pipeline = namenode.allocate_block(
        "/f", _block(simple_schema, simple_records), client_node=0
    )
    info = HailBlockReplicaInfo(pipeline[0], "id", "id")
    namenode.register_replica(block_id, pipeline[0], replica_info=info)
    namenode.delete_file("/f")
    assert namenode.describe()["dir_rep_entries"] == 0


def test_namenode_replication_validation(small_cluster):
    with pytest.raises(ValueError):
        NameNode(small_cluster, replication=0)


# --------------------------------------------------------------------------- datanode
def test_datanode_store_and_read(small_cluster, simple_schema, simple_records):
    node = small_cluster.node(0)
    datanode = DataNode(node)
    payload = TextBlockPayload([simple_schema.format_record(r) for r in simple_records])
    replica = Replica(block_id=1, datanode_id=0, payload=payload)
    datanode.store_replica(replica)
    assert datanode.has_replica(1)
    assert datanode.replica(1) is replica
    assert datanode.used_bytes == payload.size_bytes()
    assert node.disk_used_bytes > payload.size_bytes()  # data file + checksum file
    assert datanode.block_ids() == [1]


def test_datanode_rejects_foreign_replica(small_cluster, simple_schema):
    datanode = DataNode(small_cluster.node(0))
    replica = Replica(block_id=1, datanode_id=2, payload=TextBlockPayload(["x|y|1.0"]))
    with pytest.raises(ValueError):
        datanode.store_replica(replica)


def test_datanode_missing_replica_raises(small_cluster):
    datanode = DataNode(small_cluster.node(0))
    with pytest.raises(ReplicaNotFoundError):
        datanode.replica(9)


def test_datanode_delete_replica_releases_disk(small_cluster, simple_schema, simple_records):
    node = small_cluster.node(1)
    datanode = DataNode(node)
    payload = TextBlockPayload([simple_schema.format_record(r) for r in simple_records])
    datanode.store_replica(Replica(block_id=5, datanode_id=1, payload=payload))
    datanode.delete_replica(5)
    assert not datanode.has_replica(5)
    assert node.disk_used_bytes == 0
    # Deleting twice is a no-op.
    datanode.delete_replica(5)


def test_datanode_store_over_an_existing_replica_releases_what_it_replaces(small_cluster):
    node = small_cluster.node(0)
    datanode = DataNode(node)

    def replica(block_id, *lines):
        return Replica(block_id=block_id, datanode_id=0, payload=TextBlockPayload(lines))

    datanode.store_replica(replica(1, "a|b|1.0", "c|d|2.0"))
    datanode.store_replica(replica(1, "a|b|1.0", "c|d|2.0"))  # overwrite, same size
    assert datanode.used_bytes == datanode.replica(1).size_bytes
    datanode.delete_replica(1)
    assert node.disk_used_bytes == 0 and datanode.used_bytes == 0

    # The running total is the sum over what is stored, after any store/overwrite/delete mix.
    datanode.store_replica(replica(1, "x|y|1.0"))
    datanode.store_replica(replica(2, "long-line|" * 40 + "|2.0"))
    datanode.store_replica(replica(1, "x|y|1.0", "grown|z|3.0"))
    datanode.delete_replica(7)  # never stored
    datanode.store_replica(replica(3, ""))
    datanode.delete_replica(2)
    datanode.store_replica(replica(3, "shrunk"))
    stored = [datanode.replica(block_id) for block_id in datanode.block_ids()]
    assert datanode.block_ids() == [1, 3]
    assert datanode.used_bytes == sum(r.size_bytes for r in stored)
    for block_id in datanode.block_ids():
        datanode.delete_replica(block_id)
    assert node.disk_used_bytes == 0 and datanode.used_bytes == 0


# --------------------------------------------------------------------------- the replica writer
def test_install_replica_over_an_existing_one_leaks_no_disk_charge(
    hdfs, simple_schema, simple_records
):
    from repro.hail import HailBlock
    from repro.hdfs.checksum import checksum_file_size

    hdfs.namenode.create_file("/f")
    block_id, pipeline = hdfs.namenode.allocate_block(
        "/f", _block(simple_schema, simple_records), client_node=0
    )
    text = TextBlockPayload([simple_schema.format_record(r) for r in simple_records])
    for datanode_id in pipeline:
        hdfs.install_replica(block_id, datanode_id, text, checksums=(1, 2))
    assert hdfs.namenode.block_datanodes(block_id) == pipeline
    assert hdfs.namenode.replica_info(block_id, pipeline[1]) is None

    indexed = HailBlock.build(simple_schema, simple_records, "id", partition_size=8)
    target = pipeline[1]
    hdfs.install_replica(block_id, target, indexed, indexed.replica_info(target), touch=True)

    # Only the new replica's data + checksum files are charged: the text replica's are gone.
    footprint = indexed.size_bytes() + checksum_file_size(indexed.size_bytes())
    assert hdfs.cluster.node(target).disk_used_bytes == footprint
    assert hdfs.namenode.block_datanodes(block_id) == pipeline  # Dir_block order unchanged
    stored = hdfs.read_replica(block_id, target)
    assert stored.payload is indexed and stored.indexed_attribute == "id"
    assert stored.checksums == ()
    assert hdfs.namenode.hosts_with_index(block_id, "id") == [target]
    assert hdfs.namenode.index_usage(block_id, target) == (1, 1)
