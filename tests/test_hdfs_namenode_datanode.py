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
        block_id=-1, path=path, num_records=len(records), schema=schema, text_size_bytes=100
    )


@pytest.fixture
def namenode(small_cluster):
    return NameNode(small_cluster, replication=3)


def test_namespace_create(namenode):
    assert not namenode.file_exists("/a")
    with pytest.raises(FileNotFoundInHdfsError):
        namenode.file_blocks("/a")
    namenode.create_file("/a")
    assert namenode.file_exists("/a")
    assert namenode.list_files() == ["/a"]
    assert namenode.file_blocks("/a") == []
    with pytest.raises(FileAlreadyExistsError):
        namenode.create_file("/a")


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
    assert namenode.logical_block(block_id).num_records == len(simple_records)


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


def test_unregister_replica_clears_its_directory_entries(namenode, simple_schema, simple_records):
    namenode.create_file("/f")
    block_id, pipeline = namenode.allocate_block(
        "/f", _block(simple_schema, simple_records), client_node=0
    )
    for datanode_id in pipeline[:2]:
        info = HailBlockReplicaInfo(datanode_id, "id", "id")
        namenode.register_replica(block_id, datanode_id, replica_info=info)
        namenode.touch_index_usage(block_id, datanode_id)

    namenode.unregister_replica(block_id, pipeline[0])
    assert namenode.block_datanodes(block_id, alive_only=False) == [pipeline[1]]
    assert namenode.replica_info(block_id, pipeline[0]) is None
    assert namenode.index_usage(block_id, pipeline[0]) == (0, 0)
    assert namenode.index_usage(block_id, pipeline[1]) != (0, 0)
    assert namenode.describe()["dir_rep_entries"] == 1

    namenode.unregister_replica(block_id, pipeline[1])
    namenode.unregister_replica(block_id, pipeline[1])  # a second time: already gone
    assert namenode.block_datanodes(block_id, alive_only=False) == []
    assert namenode.describe()["dir_rep_entries"] == 0
    assert namenode.file_blocks("/f") == [block_id]  # the block itself stays in the namespace


def test_an_indexed_registration_clears_the_eviction_tombstone(
    namenode, simple_schema, simple_records
):
    namenode.create_file("/f")
    block_id, pipeline = namenode.allocate_block(
        "/f", _block(simple_schema, simple_records), client_node=0
    )
    namenode.record_index_eviction(block_id, "id", pipeline[0])
    namenode.record_index_eviction(block_id, "name", pipeline[0])

    namenode.register_replica(block_id, pipeline[1])  # no replica info: a stock replica
    namenode.register_replica(
        block_id, pipeline[2], replica_info=HailBlockReplicaInfo(pipeline[2], "id", None)
    )
    assert namenode.block_eviction_tombstones(block_id) == {"id": pipeline[0], "name": pipeline[0]}

    namenode.register_replica(
        block_id, pipeline[1], replica_info=HailBlockReplicaInfo(pipeline[1], "id", "id")
    )
    assert namenode.index_eviction(block_id, "id") is None
    assert namenode.block_eviction_tombstones(block_id) == {"name": pipeline[0]}


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
def _text_block(hdfs, schema, records) -> tuple[int, list[int]]:
    """One block of ``/f`` with a text replica on every pipeline node."""
    hdfs.namenode.create_file("/f")
    block_id, pipeline = hdfs.namenode.allocate_block(
        "/f", _block(schema, records), client_node=0
    )
    text = TextBlockPayload([schema.format_record(r) for r in records])
    for datanode_id in pipeline:
        hdfs.install_replica(block_id, datanode_id, text)
    return block_id, pipeline


def _indexed(hdfs, block_id, target, schema, records):
    """Replace ``target``'s replica with one indexed on ``id``, its first index use recorded."""
    from repro.hail.hail_block import HailBlock

    indexed = HailBlock.build(schema, records, "id", partition_size=8)
    hdfs.install_replica(block_id, target, indexed, indexed.replica_info(target), touch=True)
    return indexed


class _RecordingJournal:
    """A stand-in journal: records each ``sync_block`` call."""

    def __init__(self) -> None:
        self.syncs: list[tuple[int, str]] = []

    def sync_block(self, hdfs, block_id: int, site: str) -> None:
        self.syncs.append((block_id, site))


def test_install_replica_over_an_existing_one_leaks_no_disk_charge(
    hdfs, simple_schema, simple_records
):
    from repro.hdfs.checksum import checksum_file_size

    block_id, pipeline = _text_block(hdfs, simple_schema, simple_records)
    assert hdfs.namenode.block_datanodes(block_id) == pipeline
    assert hdfs.namenode.replica_info(block_id, pipeline[1]) is None

    target = pipeline[1]
    indexed = _indexed(hdfs, block_id, target, simple_schema, simple_records)

    # Only the new replica's data + checksum files are charged: the text replica's are gone.
    footprint = indexed.size_bytes() + checksum_file_size(indexed.size_bytes())
    assert hdfs.cluster.node(target).disk_used_bytes == footprint
    assert hdfs.namenode.block_datanodes(block_id) == pipeline  # Dir_block order unchanged
    stored = hdfs.read_replica(block_id, target)
    assert stored.payload is indexed and stored.indexed_attribute == "id"
    assert hdfs.namenode.hosts_with_index(block_id, "id") == [target]
    assert hdfs.namenode.index_usage(block_id, target) == (1, 1)


def test_remove_replica_clears_both_directories_and_the_stored_bytes(
    hdfs, simple_schema, simple_records
):
    block_id, pipeline = _text_block(hdfs, simple_schema, simple_records)
    target = pipeline[1]
    _indexed(hdfs, block_id, target, simple_schema, simple_records)
    kept = hdfs.read_replica(block_id, pipeline[0])

    hdfs.remove_replica(block_id, target)

    namenode = hdfs.namenode
    assert namenode.block_datanodes(block_id) == [pipeline[0], pipeline[2]]
    assert namenode.replica_info(block_id, target) is None
    assert namenode.hosts_with_index(block_id, "id", alive_only=False) == []
    assert namenode.index_usage(block_id, target) == (0, 0)
    assert not hdfs.datanode(target).has_replica(block_id)
    assert hdfs.datanode(target).used_bytes == 0
    assert hdfs.cluster.node(target).disk_used_bytes == 0
    assert hdfs.read_replica(block_id, pipeline[0]) is kept


def test_removing_a_replica_the_node_does_not_hold_is_a_no_op(
    hdfs, simple_schema, simple_records
):
    block_id, pipeline = _text_block(hdfs, simple_schema, simple_records)
    outsider = next(n.node_id for n in hdfs.cluster.nodes if n.node_id not in pipeline)
    stored = hdfs.total_stored_bytes()

    hdfs.remove_replica(block_id, outsider)
    hdfs.remove_replica(block_id, pipeline[0])
    hdfs.remove_replica(block_id, pipeline[0])  # a second time: already gone

    assert hdfs.namenode.block_datanodes(block_id) == pipeline[1:]
    assert hdfs.total_stored_bytes() == stored * 2 // 3
    assert hdfs.cluster.node(outsider).disk_used_bytes == 0


def test_a_mutation_scope_journals_its_block_once_and_only_on_normal_exit(
    hdfs, simple_schema, simple_records
):
    block_id, pipeline = _text_block(hdfs, simple_schema, simple_records)
    journal = hdfs.persist = _RecordingJournal()

    with hdfs.mutating(block_id, "mid_rebalance"):
        _indexed(hdfs, block_id, pipeline[0], simple_schema, simple_records)
        hdfs.remove_replica(block_id, pipeline[1])
    assert journal.syncs == [(block_id, "mid_rebalance")]

    with pytest.raises(RuntimeError):
        with hdfs.mutating(block_id, "mid_eviction"):
            hdfs.remove_replica(block_id, pipeline[2])
            raise RuntimeError("crash mid-mutation")
    assert journal.syncs == [(block_id, "mid_rebalance")]


def test_a_mutation_scope_without_a_journal_touches_no_backend(
    hdfs, simple_schema, simple_records
):
    block_id, pipeline = _text_block(hdfs, simple_schema, simple_records)
    detached = hdfs.persist = _RecordingJournal()
    hdfs.persist = None

    with hdfs.mutating(block_id, "mid_upload"):
        hdfs.remove_replica(block_id, pipeline[0])

    assert detached.syncs == [] and hdfs.persist is None
    assert hdfs.namenode.block_datanodes(block_id) == pipeline[1:]


def test_only_hdfs_and_the_journal_mutate_replicas_or_sync_them():
    """Replica changes and journal syncs go through ``Hdfs`` (``install_replica``,
    ``remove_replica``, ``mutating``).

    Anything else registering or unregistering a replica itself, deleting its bytes, or syncing
    a block could change a replica's bytes and its ``Dir_rep`` entry apart, or journal half a
    mutation.  Inside the namenode, only ``register_replica`` and ``unregister_replica`` write
    a ``Dir_rep`` entry or take a host out of ``Dir_block``.
    """
    import ast
    from pathlib import Path

    import repro

    package = Path(repro.__file__).parent
    namenode = ast.parse((package / "hdfs" / "namenode.py").read_text(encoding="utf-8"))
    writers = {
        method.name
        for cls in namenode.body if isinstance(cls, ast.ClassDef)
        for method in cls.body if isinstance(method, ast.FunctionDef)
        if _writes_directory(method)
    }
    assert writers == {"register_replica", "unregister_replica"}

    edges = {"register_replica", "unregister_replica", "delete_replica", "sync_block"}
    owners = {package / "hdfs", package / "persist"}
    sources = [path for path in sorted(package.rglob("*.py")) if path.parent not in owners]
    assert len(sources) > 50
    calls = [
        f"{path.relative_to(package)}:{node.lineno} {node.func.attr}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in edges
    ]
    assert calls == []



#: The namenode's layout: everything a block plan or a ``BlockLocation`` reads of it.
_LAYOUT = frozenset({"_files", "_dir_block", "_dir_rep", "_evictions"})


def _writes_directory(method, layout: bool = False) -> bool:
    """True when ``method`` assigns into, deletes from or pops ``self._dir_rep``, or takes
    anything out of ``self._dir_block`` (directly or through a local bound to it).

    With ``layout``, True when ``method`` writes any :data:`_LAYOUT` directory in any way:
    assigns (or augments) into, deletes from, adds to or takes out of one, directly or
    through a local bound to it.
    """
    import ast

    def names(node) -> set[str]:
        return {
            child.attr if isinstance(child, ast.Attribute) else child.id
            for child in ast.walk(node)
            if isinstance(child, ast.Name)
            or isinstance(child, ast.Attribute) and getattr(child.value, "id", None) == "self"
        }

    nodes = list(ast.walk(method))
    sources = _LAYOUT if layout else {"_dir_block"}
    removable = ({"_dir_rep", "_dir_block"} | sources) | {
        target.id
        for node in nodes if isinstance(node, ast.Assign) and names(node.value) & sources
        for target in node.targets if isinstance(target, ast.Name)
    }
    assigned = removable if layout else {"_dir_rep"}
    calls = ("pop", "popitem", "remove", "clear") + (
        ("append", "extend", "insert", "setdefault", "update") if layout else ()
    )
    return any(
        isinstance(node, (ast.Assign, ast.AugAssign))
        and any(
            isinstance(t, ast.Subscript) and names(t.value) & assigned
            for t in getattr(node, "targets", [getattr(node, "target", None)])
        )
        or isinstance(node, ast.Delete) and any(names(t) & removable for t in node.targets)
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in calls
        and bool(names(node.func.value) & removable)
        for node in nodes
    )


def _bumps_epoch(method) -> bool:
    """True when ``method`` runs ``self.epoch += 1``."""
    import ast

    return any(
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr == "epoch"
        and getattr(node.target.value, "id", None) == "self"
        for node in ast.walk(method)
    )


def _stamps_block(method) -> bool:
    """True when ``method`` runs ``self._block_epochs[block_id] = self.epoch``."""
    import ast

    def is_self(node, attr: str) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and getattr(node.value, "id", None) == "self"
        )

    return any(
        isinstance(node, ast.Assign)
        and is_self(node.value, "epoch")
        and any(
            isinstance(target, ast.Subscript)
            and is_self(target.value, "_block_epochs")
            and getattr(target.slice, "id", None) == "block_id"
            for target in node.targets
        )
        for node in ast.walk(method)
    )


def test_every_namenode_layout_write_bumps_the_epoch():
    """A ``NameNode`` method that writes ``_files``, ``Dir_block``, ``Dir_rep`` or the eviction
    tombstones also bumps ``epoch``, one that writes a block's layout stamps that block with
    the new epoch, and no other module touches those directories.

    HAIL's split memo (``repro.hail.input_format.SplitMemo``) keeps a block's plan only while
    the block's stamp stands and its cut splits only while the epoch does, so a mutator that
    skipped either would serve a stale split phase.
    """
    import ast
    from pathlib import Path

    import repro

    package = Path(repro.__file__).parent
    source = package / "hdfs" / "namenode.py"
    methods = [
        method
        for cls in ast.parse(source.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef) and cls.name == "NameNode"
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name != "__init__"
    ]
    writers = {method.name for method in methods if _writes_directory(method, layout=True)}
    assert writers == {
        "create_file", "allocate_block", "register_replica", "unregister_replica",
        "record_index_eviction", "adopt_block",
    }
    assert {method.name for method in methods if _bumps_epoch(method)} == writers
    # Every writer but ``create_file`` (which adds a file without blocks) writes one block.
    assert {method.name for method in methods if _stamps_block(method)} == writers - {
        "create_file"
    }

    outside = [
        f"{path.relative_to(package)}:{node.lineno} {node.attr}"
        for path in sorted(package.rglob("*.py")) if path != source
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in _LAYOUT
    ]
    assert outside == []


def test_each_layout_write_moves_the_epoch(namenode, simple_schema, simple_records):
    epochs = [namenode.epoch]
    namenode.create_file("/f")
    epochs.append(namenode.epoch)
    block_id, pipeline = namenode.allocate_block("/f", _block(simple_schema, simple_records))
    epochs.append(namenode.epoch)
    other, _ = namenode.allocate_block("/f", _block(simple_schema, simple_records))
    epochs.append(namenode.epoch)
    stamps = [namenode.block_epoch(block_id)]
    namenode.register_replica(block_id, pipeline[0])
    epochs.append(namenode.epoch)
    stamps.append(namenode.block_epoch(block_id))
    namenode.record_index_eviction(block_id, "a", pipeline[0])
    epochs.append(namenode.epoch)
    stamps.append(namenode.block_epoch(block_id))
    namenode.unregister_replica(block_id, pipeline[0])
    epochs.append(namenode.epoch)
    stamps.append(namenode.block_epoch(block_id))
    namenode.touch_index_usage(block_id, pipeline[1])  # LRU statistics are not the layout
    epochs.append(namenode.epoch)
    stamps.append(namenode.block_epoch(block_id))
    assert epochs == [0, 1, 2, 3, 4, 5, 6, 6]
    # Each write stamps its own block only: the other block keeps its allocation's epoch.
    assert stamps == [2, 4, 5, 6, 6]
    assert namenode.block_epoch(other) == 3
