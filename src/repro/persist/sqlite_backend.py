"""The journal: one WAL-mode SQLite database per node, the namenode's as authority.

The journal holds the deployment's durable state — Dir_block/Dir_rep, block payloads,
zone-map synopses, usage statistics, eviction tombstones and the adaptive tuner's control
state — and is written at every mutation point (upload, adaptive commit, eviction
downgrade, balancer rebuild/migrate) through three calls: :meth:`SqliteBackend.sync_path`
(a new file at upload start), :meth:`SqliteBackend.sync_block` (one block changed: its
directory state is re-captured *from the authoritative in-memory namenode* and replaced in
one transaction) and :meth:`SqliteBackend.sync_control` (adaptive salt, tuner knobs,
balancer demand).  Each call is a crash site (:mod:`repro.persist.backend`).

Layout under ``persistence_dir``:

- ``namenode.db`` — the directory state: paths + schemas, logical blocks (records as PAX
  byte blobs), ``Dir_block`` host order, ``Dir_rep`` infos plus each replica's physical
  metadata, LRU usage statistics, eviction tombstones, and a key/value ``control`` table
  (allocation counter, usage clock, adaptive salt, tuner state, balancer demand).
- ``node_<id>.db`` — one database per datanode holding that node's replica payload bytes,
  mirroring HAIL's one-journal-per-datanode deployment shape.

Every database runs ``journal_mode=WAL`` (readers never block the journal writer, and a
torn process leaves a WAL SQLite replays on next open) with ``foreign_keys=ON`` so a
block's dependent rows (hosts, infos, usage, tombstones) can never outlive the block row,
and SQLite's default ``synchronous`` level.

**Commit ordering is the crash-safety contract**: a ``sync_block`` first upserts payload
bytes into the holding nodes' databases (one commit per node, upsert-only — rows for
replicas that disappeared are left behind as orphans), *then* replaces the block's
directory rows in ``namenode.db`` in a single transaction.  A crash between the two (where
:class:`~repro.persist.backend.CrashPoint` fires) leaves node databases strictly ahead of
the directory; restore drives entirely off ``namenode.db`` and ignores payload rows it does
not reference, so any interrupted mutation atomically either happened or did not.

**Only changed blobs are written** (delta syncs).  An instance remembers, per block, the
*blob sources* of the entry it last committed (:func:`repro.persist.state.capture_block`:
the replicas' ``PaxBlock`` objects and the ``LogicalBlock``, never bytes).  Blocks are
immutable, so a node whose replica is still the committed object gets no transaction, and
the ``blocks`` row stays while the ``LogicalBlock`` is the committed one: an adaptive commit
writes one payload, not four blobs.  The record is updated only after the namenode commit,
starts empty in every new instance and is re-seeded by ``checkpoint()``.  The directory
then points at rows an earlier sync wrote, so :meth:`load_state` raises a
:class:`~repro.persist.state.JournalCorruptError` naming the replica when one is missing.
Orphans are garbage-collected by the next ``checkpoint()``, which rewrites every database
from a full capture and then truncates every WAL.  See ``docs/persistence.md``.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Optional

from repro.persist import state as state_mod
from repro.persist.backend import Checkpointing, CrashPoint

_NAMENODE_SCHEMA = """
CREATE TABLE IF NOT EXISTS paths (
    path TEXT PRIMARY KEY,
    schema_json TEXT NOT NULL,
    position INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS blocks (
    block_id INTEGER PRIMARY KEY,
    path TEXT NOT NULL REFERENCES paths(path) ON DELETE CASCADE,
    num_records INTEGER NOT NULL,
    records_blob BLOB NOT NULL,
    bad_lines_json TEXT NOT NULL,
    text_size_bytes INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS dir_block (
    block_id INTEGER NOT NULL REFERENCES blocks(block_id) ON DELETE CASCADE,
    position INTEGER NOT NULL,
    datanode_id INTEGER NOT NULL,
    PRIMARY KEY (block_id, position)
);
CREATE TABLE IF NOT EXISTS dir_rep (
    block_id INTEGER NOT NULL REFERENCES blocks(block_id) ON DELETE CASCADE,
    datanode_id INTEGER NOT NULL,
    info_json TEXT,
    meta_json TEXT NOT NULL,
    PRIMARY KEY (block_id, datanode_id)
);
CREATE TABLE IF NOT EXISTS usage (
    block_id INTEGER NOT NULL REFERENCES blocks(block_id) ON DELETE CASCADE,
    datanode_id INTEGER NOT NULL,
    use_count INTEGER NOT NULL,
    last_tick INTEGER NOT NULL,
    PRIMARY KEY (block_id, datanode_id)
);
CREATE TABLE IF NOT EXISTS evictions (
    block_id INTEGER NOT NULL REFERENCES blocks(block_id) ON DELETE CASCADE,
    attribute TEXT NOT NULL,
    datanode_id INTEGER NOT NULL,
    PRIMARY KEY (block_id, attribute)
);
CREATE TABLE IF NOT EXISTS control (
    key TEXT PRIMARY KEY,
    value_json TEXT NOT NULL
);
"""

_NODE_SCHEMA = """
CREATE TABLE IF NOT EXISTS replicas (
    block_id INTEGER PRIMARY KEY,
    payload_blob BLOB NOT NULL
);
"""


class SqliteBackend(Checkpointing):
    """Journal the deployment into SQLite files under ``persistence_dir`` (see module doc)."""

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._namenode = self._open(self.directory / "namenode.db", _NAMENODE_SCHEMA)
        self._nodes: dict[int, sqlite3.Connection] = {}
        #: Armed fault-injection point, or ``None`` for normal operation.
        self.crash_point: Optional[CrashPoint] = None
        #: ``{block_id: blob sources}`` of the entries this instance committed (module doc).
        self._committed: dict[int, dict] = {}

    # ------------------------------------------------------------------ crash injection
    def _maybe_crash(self, site: str) -> None:
        """Fire the armed crash point, if any, for a journal write at ``site``."""
        if self.crash_point is not None:
            self.crash_point.check(site)

    def barrier(self, site: str) -> None:
        """A crash site that journals nothing (``"mid_concurrent_batch"``): a named point
        between two journaled operations at which an armed :class:`CrashPoint` can kill."""
        self._maybe_crash(site)

    # ------------------------------------------------------------------ connections
    @staticmethod
    def _open(path: Path, schema: str) -> sqlite3.Connection:
        conn = sqlite3.connect(str(path))
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA foreign_keys=ON")
        conn.executescript(schema)
        conn.commit()
        return conn

    def _node(self, datanode_id: int) -> sqlite3.Connection:
        conn = self._nodes.get(datanode_id)
        if conn is None:
            conn = self._open(self.directory / f"node_{datanode_id}.db", _NODE_SCHEMA)
            self._nodes[datanode_id] = conn
        return conn

    def close(self) -> None:
        """Close every open database connection."""
        self._namenode.close()
        for conn in self._nodes.values():
            conn.close()
        self._nodes.clear()

    # ------------------------------------------------------------------ journaling hooks
    def sync_path(self, path: str, schema) -> None:
        """Upsert the path/schema row, preserving upload order via a position column."""
        self._maybe_crash("sync_path")
        with self._namenode as conn:
            (count,) = conn.execute("SELECT COUNT(*) FROM paths").fetchone()
            conn.execute(
                "INSERT OR REPLACE INTO paths (path, schema_json, position) VALUES (?, ?, ?)",
                (path, json.dumps(state_mod.codec.encode_schema(schema)), count),
            )

    def sync_block(self, hdfs, block_id: int, site: str) -> None:
        """Journal one block: node payload commits first, namenode directory commit last."""
        entry, sources = state_mod.capture_block(
            hdfs, block_id, self._committed.get(block_id, {})
        )
        control = state_mod.capture_namenode_control(hdfs.namenode)
        # Payload bytes first, one commit per node whose payload is not committed yet.
        # Upsert-only: rows for replicas that moved or died stay behind as orphans the
        # directory no longer references.
        for datanode_id, stored in entry["replicas"].items():
            if "payload_blob" in stored:
                with self._node(datanode_id) as conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO replicas (block_id, payload_blob)"
                        " VALUES (?, ?)",
                        (block_id, stored["payload_blob"]),
                    )
        # The crash window: payloads are on disk, the directory commit has not happened.
        self._maybe_crash(site)
        # Directory last, in one transaction — the block either fully appears or does not.
        with self._namenode as conn:
            self._write_block_entry(conn, block_id, entry)
            self._write_control(conn, control)
        self._committed[block_id] = sources

    def sync_control(self, control: dict) -> None:
        """Upsert the control scalars into the namenode DB in one transaction."""
        self._maybe_crash("sync_control")
        with self._namenode as conn:
            self._write_control(conn, control)

    # ------------------------------------------------------------------ write helpers
    @staticmethod
    def _write_control(conn: sqlite3.Connection, control: dict) -> None:
        for key, value in control.items():
            conn.execute(
                "INSERT OR REPLACE INTO control (key, value_json) VALUES (?, ?)",
                (key, json.dumps(value)),
            )

    @staticmethod
    def _write_block_entry(conn: sqlite3.Connection, block_id: int, entry: dict) -> None:
        # Dependent rows are replaced wholesale and explicitly; the ``blocks`` row (the
        # logical records) is upserted in place, and only when the entry carries the blob.
        for table in ("evictions", "usage", "dir_rep", "dir_block"):
            conn.execute(f"DELETE FROM {table} WHERE block_id = ?", (block_id,))
        if "records_blob" in entry:
            conn.execute(
                "INSERT INTO blocks (block_id, path, num_records, records_blob,"
                " bad_lines_json, text_size_bytes) VALUES (?, ?, ?, ?, ?, ?)"
                " ON CONFLICT (block_id) DO UPDATE SET path = excluded.path,"
                " num_records = excluded.num_records, records_blob = excluded.records_blob,"
                " bad_lines_json = excluded.bad_lines_json,"
                " text_size_bytes = excluded.text_size_bytes",
                (
                    block_id,
                    entry["path"],
                    entry["num_records"],
                    entry["records_blob"],
                    json.dumps(entry["bad_lines"]),
                    entry["text_size_bytes"],
                ),
            )
        for position, datanode_id in enumerate(entry["dir_block"]):
            conn.execute(
                "INSERT INTO dir_block (block_id, position, datanode_id) VALUES (?, ?, ?)",
                (block_id, position, datanode_id),
            )
        for datanode_id, stored in entry["replicas"].items():
            info_json = None if stored["info"] is None else json.dumps(stored["info"])
            conn.execute(
                "INSERT INTO dir_rep (block_id, datanode_id, info_json, meta_json)"
                " VALUES (?, ?, ?, ?)",
                (block_id, datanode_id, info_json, json.dumps(stored["meta"])),
            )
        for datanode_id, (use_count, last_tick) in entry["usage"].items():
            conn.execute(
                "INSERT INTO usage (block_id, datanode_id, use_count, last_tick)"
                " VALUES (?, ?, ?, ?)",
                (block_id, datanode_id, use_count, last_tick),
            )
        for attribute, datanode_id in entry["evictions"].items():
            conn.execute(
                "INSERT INTO evictions (block_id, attribute, datanode_id) VALUES (?, ?, ?)",
                (block_id, attribute, datanode_id),
            )

    # ------------------------------------------------------------------ checkpoint/restore
    def _store_state(self, state: dict) -> None:
        """Rewrite every database from a full capture: orphans go, WALs are truncated."""
        per_node: dict[int, list[tuple[int, bytes]]] = {}
        for block_id, entry in state["blocks"].items():
            for datanode_id, stored in entry["replicas"].items():
                per_node.setdefault(datanode_id, []).append(
                    (block_id, stored["payload_blob"])
                )
        for datanode_id, rows in per_node.items():
            with self._node(datanode_id) as conn:
                conn.execute("DELETE FROM replicas")
                conn.executemany(
                    "INSERT INTO replicas (block_id, payload_blob) VALUES (?, ?)", rows
                )
        with self._namenode as conn:
            for table in ("evictions", "usage", "dir_rep", "dir_block", "blocks", "paths"):
                conn.execute(f"DELETE FROM {table}")
            conn.execute("DELETE FROM control")
            for path, meta in state["paths"].items():
                conn.execute(
                    "INSERT INTO paths (path, schema_json, position) VALUES (?, ?, ?)",
                    (path, json.dumps(meta["schema"]), meta["position"]),
                )
            for block_id, entry in state["blocks"].items():
                self._write_block_entry(conn, block_id, entry)
            self._write_control(conn, state["control"])
        # Compact: fold every write-ahead log into its database and cut it to zero bytes.
        for conn in (self._namenode, *self._nodes.values()):
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def load_state(self) -> dict:
        """Read the whole journal back into the encoded-state dict ``restore_system`` takes.

        Driven entirely off ``namenode.db``; node databases are consulted only for payload
        bytes of replicas the directory references, so crash-window orphans never surface.
        """
        state = state_mod.empty_state()
        conn = self._namenode
        for path, schema_json, position in conn.execute(
            "SELECT path, schema_json, position FROM paths"
        ):
            state["paths"][path] = {"schema": json.loads(schema_json), "position": position}
        for row in conn.execute(
            "SELECT block_id, path, num_records, records_blob, bad_lines_json,"
            " text_size_bytes FROM blocks"
        ):
            block_id, path, num_records, records_blob, bad_lines_json, text_size = row
            state["blocks"][block_id] = {
                "path": path,
                "num_records": num_records,
                "records_blob": records_blob,
                "bad_lines": json.loads(bad_lines_json),
                "text_size_bytes": text_size,
                "dir_block": [],
                "replicas": {},
                "usage": {},
                "evictions": {},
            }
        for block_id, datanode_id in conn.execute(
            "SELECT block_id, datanode_id FROM dir_block ORDER BY block_id, position"
        ):
            state["blocks"][block_id]["dir_block"].append(datanode_id)
        for block_id, datanode_id, info_json, meta_json in conn.execute(
            "SELECT block_id, datanode_id, info_json, meta_json FROM dir_rep"
        ):
            payload_row = self._node(datanode_id).execute(
                "SELECT payload_blob FROM replicas WHERE block_id = ?", (block_id,)
            ).fetchone()
            if payload_row is None:
                raise state_mod.JournalCorruptError(
                    f"namenode.db references a replica of block {block_id} on datanode"
                    f" {datanode_id}, but {self.directory / f'node_{datanode_id}.db'}"
                    " holds no payload row for it"
                )
            state["blocks"][block_id]["replicas"][datanode_id] = {
                "info": None if info_json is None else json.loads(info_json),
                "payload_blob": payload_row[0],
                "meta": json.loads(meta_json),
            }
        for block_id, datanode_id, use_count, last_tick in conn.execute(
            "SELECT block_id, datanode_id, use_count, last_tick FROM usage"
        ):
            state["blocks"][block_id]["usage"][datanode_id] = [use_count, last_tick]
        for block_id, attribute, datanode_id in conn.execute(
            "SELECT block_id, attribute, datanode_id FROM evictions"
        ):
            state["blocks"][block_id]["evictions"][attribute] = datanode_id
        for key, value_json in conn.execute("SELECT key, value_json FROM control"):
            state["control"][key] = json.loads(value_json)
        return state
