"""The journal refuses what it cannot vouch for, and pays no fsync per commit for it.

The namenode's ``Dir_rep`` rows journal every replica payload's chunk CRCs, and restore checks
each payload against them before decoding it (``src/repro/persist/state.py``).  That is what
lets every journal database run ``synchronous=NORMAL``: after a power loss a node database may
fall behind the directory, and restore then refuses it by name instead of serving it.  Pinned
here:

- **hardening** — a flipped bit, a WAL truncated mid-frame, a deleted node database and a
  journal of another ``user_version`` each raise :class:`JournalCorruptError` naming the
  damaged object;
- **call counts** — every connection runs ``synchronous=NORMAL`` with a ``busy_timeout`` at
  the journal's ``user_version``; a sync computes one CRC list per payload object the block
  has not committed on any node, so replicas sorted alike cost one, and a migration or a
  downgrade none;
- **footprint** — a payload row a directory commit stopped referencing goes with its node's
  next payload write, and ``checkpoint()`` leaves no free page in any database.
"""

from __future__ import annotations

import json
import re
import shutil
import sqlite3

import pytest

from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.lifecycle import PlacementBalancer, evict_under_pressure
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.hdfs import checksum
from repro.persist import JournalCorruptError, restore_system, state as state_mod
from repro.persist.sqlite_backend import JOURNAL_VERSION
from repro.query.predicate import Operator, Predicate, Query

_PATH = "/integrity/synthetic"
_STORM = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
#: WAL file layout (sqlite.org/fileformat.html): a 32-byte header, then per frame a 24-byte
#: header and one page.
_WAL_HEADER, _FRAME_HEADER = 32, 24


def _config(directory, **overrides) -> HailConfig:
    """The crash matrix's deployment: replication 3, eager adaptive builds, journaled."""
    config = HailConfig(
        index_attributes=(),
        replication=3,
        functional_partition_size=1,
        splitting_policy=False,
        **overrides,
    )
    return config.with_adaptive(True, offer_rate=1.0).with_persistence(
        "sqlite", directory=str(directory)
    )


def _fresh(config: HailConfig) -> HailSystem:
    cost = CostModel(CostParameters(enable_variance=False, data_scale=5000.0))
    return HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=cost)


def _upload(system: HailSystem) -> None:
    records = SyntheticGenerator(seed=3).generate(800)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)


def _restore(config: HailConfig) -> HailSystem:
    system = _fresh(config)
    restore_system(system, system.hdfs.persist.load_state())
    return system


def _query(attribute: str = "f1") -> Query:
    return Query(
        name=f"integrity-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=None,
        description="",
    )


def _refusal(config: HailConfig) -> str:
    with pytest.raises(JournalCorruptError) as excinfo:
        _restore(config)
    return str(excinfo.value)


# --------------------------------------------------------------------------- hardening
def test_a_flipped_payload_bit_refuses_the_replica_by_name(tmp_path):
    config = _config(tmp_path)
    system = _fresh(config)
    _upload(system)
    system.hdfs.persist.checkpoint(system)
    system.hdfs.persist.close()
    with sqlite3.connect(str(tmp_path / "node_0.db")) as conn:
        (payload,) = conn.execute(
            "SELECT payload_blob FROM replicas WHERE block_id = 0"
        ).fetchone()
        flipped = bytearray(payload)
        flipped[3800] ^= 1
        conn.execute(
            "UPDATE replicas SET payload_blob = ? WHERE block_id = 0", (bytes(flipped),)
        )
    conn.close()

    message = _refusal(config)
    assert "block 0 " in message and "datanode 0" in message and "node_0.db" in message


def test_a_wal_truncated_mid_frame_refuses_the_node_that_fell_behind(tmp_path):
    config = _config(tmp_path / "live")
    system = _fresh(config)
    _upload(system)
    # What a kill leaves behind: the files as they are while the writer still has them open.
    shutil.copytree(tmp_path / "live", tmp_path / "copy")
    system.hdfs.persist.close()
    wal = tmp_path / "copy" / "node_0.db-wal"
    page_size = int.from_bytes(wal.read_bytes()[8:12], "big")
    frame = _FRAME_HEADER + page_size
    frames = (wal.stat().st_size - _WAL_HEADER) // frame
    assert frames >= 4
    with wal.open("r+b") as handle:
        handle.truncate(_WAL_HEADER + (frames // 2) * frame + frame // 2)

    message = _refusal(_config(tmp_path / "copy"))
    assert re.search(r"block \d+ on datanode 0\b", message), message
    assert "node_0.db" in message


def test_a_deleted_node_database_refuses_by_name_and_stays_deleted(tmp_path):
    config = _config(tmp_path)
    system = _fresh(config)
    _upload(system)
    system.hdfs.persist.close()
    node_db = tmp_path / "node_2.db"
    node_db.unlink()

    message = _refusal(config)
    assert "datanode 2" in message and "node_2.db" in message and "does not exist" in message
    assert not node_db.exists()


@pytest.mark.parametrize("version", (0, JOURNAL_VERSION - 1, JOURNAL_VERSION + 1))
@pytest.mark.parametrize("database", ("namenode.db", "node_1.db"))
def test_a_journal_of_another_version_refuses_by_name(database, version, tmp_path):
    config = _config(tmp_path)
    system = _fresh(config)
    _upload(system)
    system.hdfs.persist.close()
    conn = sqlite3.connect(str(tmp_path / database))
    conn.execute(f"PRAGMA user_version = {version}")
    conn.close()

    message = _refusal(config)
    assert database in message and f"version {version}" in message


# --------------------------------------------------------------------------- old journals
def test_a_journal_with_checksummed_flags_restores_and_answers_as_an_uninterrupted_run(
    tmp_path,
):
    """Journals once carried a ``checksummed`` flag in every ``Dir_rep`` row's metadata; the
    CRCs beside it were always journaled, so restore ignores the flag, whichever its value."""
    config = _config(tmp_path)
    system = _fresh(config)
    _upload(system)
    system.run_query(_query(), _PATH)
    system.hdfs.persist.close()
    system.hdfs.persist = None  # the original lives on unjournaled, as the reference
    with sqlite3.connect(str(tmp_path / "namenode.db")) as conn:
        rows = conn.execute(
            "SELECT block_id, datanode_id, meta_json FROM dir_rep ORDER BY block_id, datanode_id"
        ).fetchall()
        for number, (block_id, datanode_id, meta_json) in enumerate(rows):
            meta = {**json.loads(meta_json), "checksummed": number % 2 == 0}
            conn.execute(
                "UPDATE dir_rep SET meta_json = ? WHERE block_id = ? AND datanode_id = ?",
                (json.dumps(meta), block_id, datanode_id),
            )
    conn.close()
    assert len(rows) == 8 * 3
    assert any(json.loads(meta_json)["indexed"] for *_, meta_json in rows)  # adaptive builds

    restored = _restore(config)
    assert state_mod.checkpoint_state(restored) == state_mod.checkpoint_state(system)
    for attribute in ("f1", "f2"):
        expected = system.run_query(_query(attribute), _PATH)
        result = restored.run_query(_query(attribute), _PATH)
        assert result.sorted_records() == expected.sorted_records()
        assert result.runtime_s == expected.runtime_s
    restored.hdfs.persist.close()


# --------------------------------------------------------------------------- call counts
def test_every_connection_syncs_normal_with_a_busy_timeout_at_the_journal_version(tmp_path):
    config = _config(tmp_path)
    system = _fresh(config)
    _upload(system)
    system.run_query(_query(), _PATH)
    system.hdfs.persist.close()
    restored = _restore(config)
    backend = restored.hdfs.persist
    connections = (backend._namenode, *backend._nodes.values())
    assert len(connections) == 5  # namenode.db and four node databases, all read by restore
    for conn in connections:
        assert conn.execute("PRAGMA synchronous").fetchone() == (1,)  # NORMAL
        assert conn.execute("PRAGMA busy_timeout").fetchone()[0] > 0
        assert conn.execute("PRAGMA user_version").fetchone() == (JOURNAL_VERSION,)
        assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
    backend.close()


class ChecksumProbe:
    """Counts ``chunk_checksums`` calls made inside each ``sync_block``, by site."""

    def __init__(self, monkeypatch, backend) -> None:
        self.per_sync: list[tuple[str, int, int]] = []  # (site, calls, new payload objects)
        self.calls = 0
        real_checksums, real_sync = checksum.chunk_checksums, backend.sync_block

        def counting_checksums(payload, *args, **kwargs):
            self.calls += 1
            return real_checksums(payload, *args, **kwargs)

        def counting_sync(hdfs, block_id, site):
            before = self.calls
            committed = _payload_objects(backend._committed.get(block_id, {}))
            real_sync(hdfs, block_id, site=site)
            new = _payload_objects(backend._committed[block_id]) - committed
            self.per_sync.append((site, self.calls - before, len(new)))

        for module in (checksum, state_mod):
            monkeypatch.setattr(module, "chunk_checksums", counting_checksums)
        monkeypatch.setattr(backend, "sync_block", counting_sync)

    def syncs(self, site: str) -> list[tuple[int, int]]:
        return [(calls, new) for where, calls, new in self.per_sync if where == site]


def _payload_objects(sources: dict) -> set[int]:
    """Ids of the ``PaxBlock`` objects in one block's blob sources (the logical block aside)."""
    return {id(source[0]) for key, source in sources.items() if key is not None}


def test_crcs_are_computed_once_per_new_payload_object(tmp_path, monkeypatch):
    system = _fresh(_config(tmp_path))
    probe = ChecksumProbe(monkeypatch, system.hdfs.persist)
    _upload(system)
    # Three unsorted replicas share the client's PaxBlock: one encode, one CRC list.
    assert probe.syncs("mid_upload") == [(1, 1)] * 8

    # Converge with one node dead, then revive it: the balancer migrates adaptive replicas.
    system.cluster.kill_node(0)
    for _ in range(3):
        system.run_query(_query(), _PATH)
    commits = probe.syncs("mid_adaptive_commit")
    assert commits and all(counts == (1, 1) for counts in commits)
    system.cluster.node(0).revive()
    moves = PlacementBalancer(skew_high=1.2, skew_low=1.05, migrations_per_pass=4).run(
        system.hdfs
    )
    migrations = probe.syncs("mid_rebalance")
    assert [action.kind for action in moves].count("migrate") == len(migrations) > 0
    assert all(counts == (0, 0) for counts in migrations)

    # A downgrade keeps its replica's PaxBlock, so it computes no CRC either.
    evicted = evict_under_pressure(system.hdfs, _STORM)
    assert any(record.kind == "downgrade" for record in evicted)
    assert probe.syncs("mid_eviction") == [(0, 0)] * len(evicted)
    system.hdfs.persist.close()


# --------------------------------------------------------------------------- footprint
def _payload_rows(directory, datanode_id: int) -> set[int]:
    conn = sqlite3.connect(str(directory / f"node_{datanode_id}.db"))
    try:
        return {block_id for (block_id,) in conn.execute("SELECT block_id FROM replicas")}
    finally:
        conn.close()


def test_replaced_payload_rows_go_with_the_next_write_and_checkpoint_frees_their_pages(
    tmp_path,
):
    config = _config(tmp_path)
    system = _fresh(config)
    _upload(system)
    backend = system.hdfs.persist
    for attribute in ("f1", "f2"):
        system.run_query(_query(attribute), _PATH)
    counts = {
        datanode_id: conn.execute("SELECT COUNT(*) FROM replicas").fetchone()[0]
        for datanode_id, conn in backend._nodes.items()
    }
    # Every node holds the rows its directory entries reference, plus only those a directory
    # commit stopped referencing since that node's last payload write.
    namenode = system.hdfs.namenode
    for datanode_id, count in counts.items():
        referenced = sum(
            datanode_id in namenode.block_datanodes(block_id, alive_only=False)
            for block_id in namenode.file_blocks(_PATH)
        )
        assert count == referenced + len(backend._superseded.get(datanode_id, ()))
    assert any(backend._superseded.values())  # two rounds of commits replaced replicas

    backend.checkpoint(system)
    assert not any(backend._superseded.values())
    for conn in (backend._namenode, *backend._nodes.values()):
        assert conn.execute("PRAGMA freelist_count").fetchone() == (0,)
    backend.close()
    restored = _restore(config)
    assert restored.run_query(_query(), _PATH).sorted_records()
    restored.hdfs.persist.close()
