"""What a journal write writes: delta syncs against the wholesale capture, counted.

A ``sync_block`` re-captures the block's *directory* state wholesale but writes a byte blob
(replica payload, logical records) only when its source object is not the one the backend
last committed (`src/repro/persist/state.py`).  Four things are pinned here:

- **differential** — after every journaled mutation (upload, adaptive commit, migration,
  eviction downgrade/delete, balancer rebuild, with node kills in between) the journal read
  back equals a fresh full capture (``checkpoint_state``, the reference implementation),
  blob for blob and row for row.  ``check_dir_rep_consistency`` cannot catch a wrongly
  skipped write: it never reads the journal;
- **counts** — one changed replica costs one encode and one payload row, not four;
- **crash** — a kill inside a delta sync leaves the backend's record of what it committed
  untouched, and the journal restores;
- **compaction and refusal** — ``checkpoint()`` leaves every ``-wal`` file empty; a missing or
  short payload refuses to restore with a typed error naming the replica.
"""

from __future__ import annotations

import dataclasses
import sqlite3

import pytest

from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.lifecycle import PlacementBalancer, evict_under_pressure
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.hail.scheduler import check_dir_rep_consistency
from repro.hdfs.checksum import verify_chunk_checksums
from repro.layouts.pax import PaxBlock
from repro.mapreduce.counters import Counters
from repro.persist import (
    CrashInjected,
    CrashPoint,
    JournalCorruptError,
    checkpoint_state,
    restore_system,
)
from repro.persist.state import capture_block
from repro.workloads.query import Query

_PATH = "/journal/synthetic"
#: The journal's one backend, named in every test id.
BACKENDS = ("sqlite",)
_STORM = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)


def _config(backend: str, directory, **overrides) -> HailConfig:
    config = HailConfig(
        index_attributes=(),
        replication=3,
        functional_partition_size=1,
        splitting_policy=False,
        **overrides,
    )
    return config.with_adaptive(True, offer_rate=1.0).with_persistence(
        backend, directory=str(directory)
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
        name=f"journal-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=None,
        description="",
    )


def _expected(system: HailSystem) -> list[tuple]:
    position = SYNTHETIC_SCHEMA.field_names.index("f1")
    return sorted(
        (r for r in system.hdfs.file_records(_PATH) if r[position] < VALUE_RANGE // 10), key=repr
    )


def _plain(value):
    """Tuples as lists — what SQLite's JSON columns hand back; bytes and scalars as they are."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _count(system: HailSystem, kind: str) -> int:
    """Lifecycle actions of ``kind`` across every retained post-job report."""
    return sum(
        action.kind == kind for report in system.lifecycle.reports for action in report.actions
    )


def _without_usage(blocks: dict) -> dict:
    return {block_id: {**entry, "usage": None} for block_id, entry in blocks.items()}


class WriteProbe:
    """Counts ``PaxBlock.to_bytes`` calls and the SQLite rows written per table."""

    def __init__(self, monkeypatch) -> None:
        self.encodes = 0
        self.statements: list[str] = []
        real = PaxBlock.to_bytes

        def counting_to_bytes(block):
            self.encodes += 1
            return real(block)

        monkeypatch.setattr(PaxBlock, "to_bytes", counting_to_bytes)

    def watch(self, backend) -> None:
        """Trace every SQLite connection the backend has open."""
        for conn in (backend._namenode, *backend._nodes.values()):
            conn.set_trace_callback(self.statements.append)

    def reset(self) -> None:
        self.encodes = 0
        del self.statements[:]

    def rows(self, table: str) -> int:
        return sum(
            statement.startswith(("INSERT INTO " + table, "INSERT OR REPLACE INTO " + table))
            for statement in self.statements
        )


# --------------------------------------------------------------------------- differential
@pytest.mark.parametrize("backend", BACKENDS)
def test_journal_equals_a_full_capture_after_every_mutation(backend, tmp_path):
    config = _config(
        backend,
        tmp_path,
        index_aware_scheduling=True,
        placement_balancer=True,
        placement_rebuilds_per_job=4,
    )
    system = _fresh(config)
    persist = system.hdfs.persist
    real_sync = persist.sync_block
    sites: list[str] = []

    def checked_sync(hdfs, block_id, site):
        real_sync(hdfs, block_id, site=site)
        sites.append(site)
        journal, capture = _plain(persist.load_state()), _plain(checkpoint_state(system))
        assert journal["paths"] == capture["paths"]
        # Index-use statistics are exact for the block just synced; for the others a plain
        # read may have touched them since their last sync (so at the parent, too).
        assert journal["blocks"][block_id] == capture["blocks"][block_id]
        assert _without_usage(journal["blocks"]) == _without_usage(capture["blocks"])
        assert journal["control"]["next_block_id"] == capture["control"]["next_block_id"]
        assert journal["control"]["usage_tick"] == capture["control"]["usage_tick"]

    persist.sync_block = checked_sync

    _upload(system)
    assert sites.count("mid_upload") == 8
    # Converge with one node dead, then revive it: adaptive bytes are skewed away from it.
    system.cluster.kill_node(0)
    for _ in range(3):
        system.run_query(_query(), _PATH)
    assert "mid_adaptive_commit" in sites
    system.cluster.node(0).revive()
    moves = PlacementBalancer(skew_high=1.2, skew_low=1.05, migrations_per_pass=4).run(system.hdfs)
    assert [action.kind for action in moves].count("migrate") > 0
    # An eviction storm downgrades the scan-built replicas (each displaced a plain copy) ...
    evicted = evict_under_pressure(system.hdfs, _STORM)
    assert evicted and all(record.kind == "downgrade" for record in evicted)
    # ... with scan builds switched off, the balancer rebuilds the lost coverage, on nodes
    # that held no copy where it can ...
    system.config = dataclasses.replace(system.config, adaptive_offer_rate=0.0)
    system.cluster.kill_node(1)
    for _ in range(4):
        result = system.run_query(_query(), _PATH)
    assert _count(system, "rebuild") > 0
    assert result.sorted_records() == _expected(system)
    # ... and a second storm deletes those additional replicas outright.
    evicted += evict_under_pressure(system.hdfs, _STORM)
    assert {record.kind for record in evicted} == {"downgrade", "evict"}
    assert sites.count("mid_eviction") == len(evicted)

    # At rest, the learned control state (salt, tuner, demand) is in the journal as well.
    journal, capture = _plain(persist.load_state()), _plain(checkpoint_state(system))
    assert set(journal["control"]) == set(capture["control"])
    for key in set(capture["control"]) - {"usage_tick"}:
        assert journal["control"][key] == capture["control"][key], key
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []
    persist.close()


# --------------------------------------------------------------------------- counts
@pytest.mark.parametrize("backend", BACKENDS)
def test_one_changed_replica_costs_one_encode_and_one_payload_row(backend, tmp_path, monkeypatch):
    config = _config(backend, tmp_path)
    system = _fresh(config)
    _upload(system)
    persist = system.hdfs.persist
    probe = WriteProbe(monkeypatch)
    probe.watch(persist)

    # Adaptive commits: checksums + the journal's copy of the one new replica (parent: 5
    # encodes, 3 payload rows and the logical-records row per commit).
    result = system.run_query(_query(), _PATH)
    commits = int(result.job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED))
    assert commits > 0
    assert commits <= probe.encodes <= 2 * commits
    assert probe.rows("replicas") == commits
    assert probe.rows("blocks") == 0
    assert probe.rows("dir_rep") == 3 * commits  # the directory is still wholesale

    # Eviction downgrades: at most the same (a downgrade strips the index and keeps the
    # replica's PaxBlock, so today only its checksums are re-derived and no payload moves).
    probe.reset()
    evicted = evict_under_pressure(system.hdfs, _STORM)
    downgrades = sum(record.kind == "downgrade" for record in evicted)
    assert downgrades > 0
    assert probe.encodes <= 2 * downgrades
    assert probe.rows("replicas") <= downgrades
    assert probe.rows("blocks") == 0
    assert probe.rows("evictions") == downgrades

    # Right after a checkpoint nothing is new: a sync of an untouched block writes no blob.
    block_id = system.hdfs.namenode.file_blocks(_PATH)[0]
    persist.checkpoint(system)
    probe.reset()
    persist.sync_block(system.hdfs, block_id, site="mid_upload")
    assert probe.encodes == 0
    assert probe.rows("replicas") == 0 and probe.rows("blocks") == 0
    before_kill = _plain(checkpoint_state(system))
    persist.close()

    # A new backend knows nothing: its first sync of a block writes every blob, once.
    restored = _restore(config)
    assert _plain(restored.hdfs.persist.load_state()) == before_kill
    probe.watch(restored.hdfs.persist)
    probe.reset()
    restored.hdfs.persist.sync_block(restored.hdfs, block_id, site="mid_upload")
    assert probe.encodes == 4  # three replicas + the logical records
    assert probe.rows("replicas") == 3 and probe.rows("blocks") == 1
    probe.reset()
    restored.hdfs.persist.sync_block(restored.hdfs, block_id, site="mid_upload")
    assert probe.encodes == 0 and probe.rows("replicas") == 0
    assert _plain(restored.hdfs.persist.load_state()) == _plain(checkpoint_state(restored))
    restored.hdfs.persist.close()


# --------------------------------------------------------------------------- crash
@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_inside_a_delta_sync_claims_nothing_uncommitted(backend, tmp_path, monkeypatch):
    config = _config(backend, tmp_path)
    system = _fresh(config)
    persist = system.hdfs.persist
    real_sync = persist.sync_block
    committed: dict[int, dict] = {}
    probe = WriteProbe(monkeypatch)
    encodes_per_sync: list[int] = []

    def spying_sync(hdfs, block_id, site):
        before = probe.encodes
        try:
            real_sync(hdfs, block_id, site=site)
        finally:
            encodes_per_sync.append(probe.encodes - before)
        # Reached only when the journal write succeeded: what the journal now holds.
        committed[block_id] = capture_block(hdfs, block_id, {})[1]

    persist.sync_block = spying_sync
    _upload(system)
    persist.crash_point = CrashPoint("mid_adaptive_commit", after=1)
    with pytest.raises(CrashInjected):
        system.run_query(_query(), _PATH)
    # The killed sync encoded the one new payload; the block's other two replicas and its
    # logical records were skipped as already committed.
    assert encodes_per_sync[-2:] == [1, 1]
    # The dead backend's record is exactly what its successful syncs committed: it does not
    # name the replica whose directory commit never happened.
    assert persist._committed == committed
    crashed = [
        block_id
        for block_id in committed
        if capture_block(system.hdfs, block_id, {})[1] != committed[block_id]
    ]
    assert len(crashed) == 1
    persist.close()

    restored = _restore(config)
    assert check_dir_rep_consistency(restored.hdfs, _PATH) == []
    assert 1 <= restored.adaptive_replica_count(_PATH) < len(committed)
    assert restored.run_query(_query(), _PATH).sorted_records() == _expected(restored)
    restored.hdfs.persist.close()


# --------------------------------------------------------------------------- compaction
def test_checkpoint_truncates_every_wal_and_restores_bit_identically(tmp_path):
    config = _config("sqlite", tmp_path)
    system = _fresh(config)
    _upload(system)
    for _ in range(2):
        system.run_query(_query(), _PATH)
    evict_under_pressure(system.hdfs, _STORM)
    system.hdfs.persist.checkpoint(system)
    wals = list(tmp_path.glob("*-wal"))
    assert len(wals) == 5  # namenode.db + four node databases, all open
    assert [wal.stat().st_size for wal in wals] == [0] * 5
    state = _plain(checkpoint_state(system))
    assert _plain(system.hdfs.persist.load_state()) == state
    system.hdfs.persist.close()
    system.hdfs.persist = None  # the original lives on unjournaled, as the reference

    restored = _restore(config)
    assert _plain(checkpoint_state(restored)) == state
    expected = system.run_query(_query("f2"), _PATH)
    result = restored.run_query(_query("f2"), _PATH)
    assert result.sorted_records() == expected.sorted_records()
    assert result.runtime_s == expected.runtime_s
    restored.hdfs.persist.close()


# --------------------------------------------------------------------------- refusal
def test_missing_payload_row_refuses_by_name(tmp_path):
    config = _config("sqlite", tmp_path)
    system = _fresh(config)
    _upload(system)
    block_id = system.hdfs.namenode.file_blocks(_PATH)[0]
    datanode_id = system.hdfs.namenode.block_datanodes(block_id, alive_only=False)[0]
    system.hdfs.persist.close()
    with sqlite3.connect(str(tmp_path / f"node_{datanode_id}.db")) as conn:
        conn.execute("DELETE FROM replicas WHERE block_id = ?", (block_id,))
    conn.close()

    with pytest.raises(JournalCorruptError) as excinfo:
        _restore(config)
    message = str(excinfo.value)
    assert f"block {block_id} " in message and f"datanode {datanode_id}" in message
    assert f"node_{datanode_id}.db" in message


@pytest.mark.parametrize("backend", BACKENDS)
def test_short_payload_refuses_by_name(backend, tmp_path):
    config = _config(backend, tmp_path)
    system = _fresh(config)
    _upload(system)
    system.hdfs.persist.close()
    state = _fresh(config).hdfs.persist.load_state()
    block_id = max(state["blocks"])
    datanode_id = state["blocks"][block_id]["dir_block"][-1]
    stored = state["blocks"][block_id]["replicas"][datanode_id]
    stored["payload_blob"] = stored["payload_blob"][:-1]

    with pytest.raises(JournalCorruptError) as excinfo:
        restore_system(_fresh(config), state)
    message = str(excinfo.value)
    assert f"block {block_id} " in message and f"datanode {datanode_id}" in message


# --------------------------------------------------------------------------- checksums
@pytest.mark.parametrize("verify", (True, False))
def test_downgrades_and_rebuilds_carry_checksums_iff_their_source_does(verify, tmp_path):
    config = _config(
        "sqlite",
        tmp_path,
        verify_checksums=verify,
        index_aware_scheduling=True,
        placement_balancer=True,
        placement_rebuilds_per_job=4,
    )
    system = _fresh(config)
    _upload(system)
    for _ in range(2):
        system.run_query(_query(), _PATH)
    stored_before = system.hdfs.total_stored_bytes()
    evicted = evict_under_pressure(system.hdfs, _STORM)
    assert any(record.kind == "downgrade" for record in evicted)
    assert system.hdfs.total_stored_bytes() < stored_before
    system.config = dataclasses.replace(system.config, adaptive_offer_rate=0.0)
    for _ in range(4):
        system.run_query(_query(), _PATH)
    assert _count(system, "rebuild") > 0

    for block_id, entry in checkpoint_state(system)["blocks"].items():
        for datanode_id, stored in entry["replicas"].items():
            replica = system.hdfs.read_replica(block_id, datanode_id)
            assert stored["meta"]["checksummed"] is verify, (block_id, datanode_id)
            assert bool(replica.checksums) is verify
            if verify:
                assert verify_chunk_checksums(stored["payload_blob"], replica.checksums)
    system.hdfs.persist.close()
