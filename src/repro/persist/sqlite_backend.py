"""The journal: one WAL-mode SQLite database per node, the namenode's as authority.

The journal holds the deployment's durable state — Dir_block/Dir_rep, block payloads,
zone-map synopses, usage statistics, eviction tombstones and the adaptive tuner's control
state — and is written at every mutation point (upload, adaptive commit, eviction
downgrade, balancer rebuild/migrate) through three calls: :meth:`SqliteBackend.sync_path`
(a new file at upload start), :meth:`SqliteBackend.sync_block` (one block changed: its
directory state is re-captured *from the authoritative in-memory namenode*, and the rows that
differ from the ones last committed are written in one transaction) and
:meth:`SqliteBackend.sync_control` (adaptive salt, tuner knobs, balancer demand).  Each call is a crash site (:mod:`repro.persist.backend`).

Layout under ``persistence_dir``:

- ``namenode.db`` — the directory state: paths + schemas, logical blocks (row count, bad
  lines, text size: the rows themselves are restored from a CRC-checked replica, since every
  replica holds all of them), ``Dir_block`` host order, ``Dir_rep`` infos plus each replica's
  physical metadata and payload chunk CRCs, LRU usage statistics, eviction tombstones, and a
  key/value ``control`` table (allocation counter, usage clock, adaptive salt, tuner state,
  balancer demand).
- ``node_<id>.db`` — one database per datanode holding that node's replica payload bytes,
  mirroring HAIL's one-journal-per-datanode deployment shape.  A payload row is keyed by its
  block id and the CRC32 of its chunk CRCs, which the directory row also holds.

Every database runs ``journal_mode=WAL`` (readers never block the journal writer, and a
torn process leaves a WAL SQLite replays on next open) with ``foreign_keys=ON`` so a
block's dependent rows (hosts, infos, usage, tombstones) can never outlive the block row,
``synchronous=NORMAL`` (a commit is a WAL append; the fsync happens at WAL checkpoints), a
``busy_timeout`` and ``auto_vacuum=INCREMENTAL`` (``checkpoint()`` hands free pages back).
Each database carries ``PRAGMA user_version`` = :data:`JOURNAL_VERSION`; opening one of any
other version raises :class:`~repro.persist.state.JournalCorruptError` naming the file.

**Durability.**  A killed process loses nothing it committed: every commit is in the WAL,
which the next open replays.  After an OS crash or power loss, each database keeps a prefix
of its commits, and the databases may have lost different suffixes.  The namenode's prefix is
a consistent directory; a node database that disagrees with it lacks a referenced payload
row, and restore refuses it by name instead of serving it: ``load_state`` raises on a
missing file or row, and :func:`~repro.persist.state.restore_system` checks every payload
against the chunk CRCs its ``Dir_rep`` row journals.

**Commit ordering is the crash-safety contract**: a ``sync_block`` first inserts new payload
bytes into the holding nodes' databases (one commit per node), in rows beside the ones the
directory still references, *then* writes the block's changed directory rows in
``namenode.db`` in a single transaction.  A crash between the two (where
:class:`~repro.persist.backend.CrashPoint` fires) leaves node databases strictly ahead of
the directory; restore drives entirely off ``namenode.db`` and ignores payload rows it does
not reference, so any interrupted mutation atomically either happened or did not.  Rows the
directory commit stopped referencing (a replaced, moved or dropped replica) are deleted in
their node's next payload transaction.

**Only changed blobs and rows are written** (delta syncs).  An instance remembers, per block,
the *sources* of the entry it last committed (:func:`repro.persist.state.capture_block`: the
replicas' ``PaxBlock`` objects with their chunk-CRC blobs, payloads and ``Dir_rep`` entries,
and the ``LogicalBlock``; never payload bytes) and the directory rows it committed.  Blocks
are immutable, so a node whose replica is still the committed object gets no transaction, a
replica whose payload and ``Dir_rep`` entry are the committed objects is not encoded, only
directory rows that differ from the committed ones are written (all of a block's, deleted
first, when the instance has no record of it), and the ``blocks`` row stays while the
``LogicalBlock`` is the committed one: an adaptive commit writes one payload and one
``dir_rep`` row, not three of each.  The record is updated only after the namenode commit,
starts empty in every new instance and is re-seeded by ``checkpoint()``.  The directory
then points at rows an earlier sync wrote, so :meth:`load_state` raises a
:class:`~repro.persist.state.JournalCorruptError` naming the replica when one is missing.
Orphans a crash or a new instance left behind are garbage-collected by the next
``checkpoint()``, which rewrites every database from a full capture, hands its free pages
back and then truncates every WAL.  See ``docs/persistence.md``.
"""

from __future__ import annotations

import json
import zlib
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
    crcs_blob BLOB NOT NULL,
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
    block_id INTEGER NOT NULL,
    payload_crc INTEGER NOT NULL,
    payload_blob BLOB NOT NULL,
    PRIMARY KEY (block_id, payload_crc)
);
"""

#: A block's directory tables beside ``blocks``: each row is keyed by the block id and one
#: more column, and holds the rest (``_block_rows`` builds them, ``_write_block_rows`` writes
#: the ones that changed).
_BLOCK_TABLES = {
    "dir_block": ("position", ("datanode_id",)),
    "dir_rep": ("datanode_id", ("info_json", "meta_json", "crcs_blob")),
    "usage": ("datanode_id", ("use_count", "last_tick")),
    "evictions": ("attribute", ("datanode_id",)),
}

#: The journal layout this module writes and the only one it reads (``PRAGMA user_version``).
JOURNAL_VERSION = 2

#: Set on every connection: free pages a checkpoint can return (takes effect only on a new
#: database, so it comes first), WAL, one fsync per WAL checkpoint instead of per commit,
#: enforced foreign keys, and a wait (in ms) on a locked database instead of an error.
_PRAGMAS = (
    "auto_vacuum=INCREMENTAL",
    "journal_mode=WAL",
    "synchronous=NORMAL",
    "foreign_keys=ON",
    "busy_timeout=5000",
)


def _block_rows(entry: dict, committed: Optional[dict]) -> dict[str, dict]:
    """A block's directory rows, ``{table: {key: row values}}``, from its journal entry.

    A replica the entry leaves out (:func:`repro.persist.state.capture_block`: its payload and
    ``Dir_rep`` entry are the committed objects) keeps its row in ``committed``, the rows last
    committed for the block.
    """
    kept = committed["dir_rep"] if committed else {}
    dir_rep = {}
    for datanode_id in entry["dir_block"]:
        stored = entry["replicas"].get(datanode_id)
        if stored is None:
            dir_rep[datanode_id] = kept[datanode_id]
        else:
            dir_rep[datanode_id] = (
                None if stored["info"] is None else json.dumps(stored["info"]),
                json.dumps(stored["meta"]),
                stored["crcs_blob"],
            )
    return {
        "dir_block": {
            position: (datanode_id,) for position, datanode_id in enumerate(entry["dir_block"])
        },
        "dir_rep": dir_rep,
        "usage": {datanode_id: tuple(counts) for datanode_id, counts in entry["usage"].items()},
        "evictions": {
            attribute: (datanode_id,) for attribute, datanode_id in entry["evictions"].items()
        },
    }


def _payload_crc(crcs_blob: bytes) -> int:
    """The key of a payload row beside its block id: the CRC32 of the payload's chunk CRCs,
    so a new payload never overwrites the row the directory still references."""
    return zlib.crc32(crcs_blob)


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
        #: ``{block_id: directory rows}`` this instance committed (:func:`_block_rows`).
        self._rows: dict[int, dict] = {}
        #: ``{datanode_id: [(block_id, payload_crc)]}``: payload rows a directory commit
        #: stopped referencing, deleted in that node's next payload transaction.
        self._superseded: dict[int, list[tuple[int, int]]] = {}

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
        """Open ``path``, creating the schema in a new database; refuse another version.

        sqlite3 is imported here, at the first journal a process opens, so a deployment
        without a journal never loads it.
        """
        import sqlite3

        conn = sqlite3.connect(str(path))
        for pragma in _PRAGMAS:
            conn.execute(f"PRAGMA {pragma}")
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        (tables,) = conn.execute("SELECT COUNT(*) FROM sqlite_master").fetchone()
        if version == 0 and tables == 0:  # a new database
            conn.executescript(
                f"BEGIN; {schema} PRAGMA user_version = {JOURNAL_VERSION}; COMMIT;"
            )
        elif version != JOURNAL_VERSION:
            conn.close()
            raise state_mod.JournalCorruptError(
                f"{path} is journal version {version}; this build reads version"
                f" {JOURNAL_VERSION} only"
            )
        return conn

    def _node(self, datanode_id: int) -> sqlite3.Connection:
        conn = self._nodes.get(datanode_id)
        if conn is None:
            conn = self._open(
                self.directory / state_mod.node_db_name(datanode_id), _NODE_SCHEMA
            )
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
        committed = self._committed.get(block_id, {})
        entry, sources = state_mod.capture_block(hdfs, block_id, committed)
        control = state_mod.capture_namenode_control(hdfs.namenode)
        # Payload bytes first, one commit per node whose payload is not committed yet, in
        # a new row beside the one the directory still references.
        for datanode_id, stored in entry["replicas"].items():
            if "payload_blob" in stored:
                with self._node(datanode_id) as conn:
                    conn.executemany(
                        "DELETE FROM replicas WHERE block_id = ? AND payload_crc = ?",
                        self._superseded.pop(datanode_id, ()),
                    )
                    conn.execute(
                        "INSERT OR REPLACE INTO replicas (block_id, payload_crc, payload_blob)"
                        " VALUES (?, ?, ?)",
                        (block_id, _payload_crc(stored["crcs_blob"]), stored["payload_blob"]),
                    )
        # The crash window: payloads are on disk, the directory commit has not happened.
        self._maybe_crash(site)
        # Directory last, in one transaction — the block either fully appears or does not.
        before = self._rows.get(block_id)
        rows = _block_rows(entry, before)
        with self._namenode as conn:
            if committed.get(None) is not sources[None]:
                self._write_logical_block(conn, block_id, entry)
            self._write_block_rows(conn, block_id, rows, before)
            self._write_control(conn, control)
        self._committed[block_id] = sources
        self._rows[block_id] = rows
        # Rows of replicas that were replaced, moved or dropped are unreferenced now.
        for datanode_id, source in committed.items():
            if datanode_id is None:
                continue
            old = _payload_crc(source.crcs_blob)
            new = sources.get(datanode_id)
            if new is None or _payload_crc(new.crcs_blob) != old:
                self._superseded.setdefault(datanode_id, []).append((block_id, old))

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
    def _write_logical_block(conn: sqlite3.Connection, block_id: int, entry: dict) -> None:
        # Upserted in place: a delete would cascade to the block's dependent rows.
        conn.execute(
            "INSERT INTO blocks (block_id, path, num_records, bad_lines_json,"
            " text_size_bytes) VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT (block_id) DO UPDATE SET path = excluded.path,"
            " num_records = excluded.num_records,"
            " bad_lines_json = excluded.bad_lines_json,"
            " text_size_bytes = excluded.text_size_bytes",
            (
                block_id,
                entry["path"],
                entry["num_records"],
                json.dumps(entry["bad_lines"]),
                entry["text_size_bytes"],
            ),
        )

    @staticmethod
    def _write_block_rows(
        conn: sqlite3.Connection, block_id: int, rows: dict, committed: Optional[dict]
    ) -> None:
        """Write the block's directory rows that differ from ``committed``, the rows the
        journal holds for it (``None`` when unknown: every row of the block is replaced)."""
        if committed is None:
            for table in _BLOCK_TABLES:
                conn.execute(f"DELETE FROM {table} WHERE block_id = ?", (block_id,))
            committed = {}
        for table, (key, columns) in _BLOCK_TABLES.items():
            before, after = committed.get(table, {}), rows[table]
            if before == after:
                continue
            gone = [(block_id, name) for name in before if name not in after]
            if gone:
                conn.executemany(f"DELETE FROM {table} WHERE block_id = ? AND {key} = ?", gone)
            changed = [
                (block_id, name, *values)
                for name, values in after.items()
                if before.get(name) != values
            ]
            if changed:
                conn.executemany(
                    f"INSERT OR REPLACE INTO {table} (block_id, {key}, {', '.join(columns)})"
                    f" VALUES (?, ?{', ?' * len(columns)})",
                    changed,
                )

    # ------------------------------------------------------------------ checkpoint/restore
    def _store_state(self, state: dict) -> None:
        """Rewrite every database from a full capture: orphans go, WALs are truncated."""
        per_node: dict[int, list[tuple[int, int, bytes]]] = {}
        for block_id, entry in state["blocks"].items():
            for datanode_id, stored in entry["replicas"].items():
                per_node.setdefault(datanode_id, []).append(
                    (block_id, _payload_crc(stored["crcs_blob"]), stored["payload_blob"])
                )
        for datanode_id, rows in per_node.items():
            with self._node(datanode_id) as conn:
                conn.execute("DELETE FROM replicas")
                conn.executemany(
                    "INSERT INTO replicas (block_id, payload_crc, payload_blob)"
                    " VALUES (?, ?, ?)",
                    rows,
                )
        self._superseded.clear()
        committed_rows = {}
        with self._namenode as conn:
            for table in (*_BLOCK_TABLES, "blocks", "paths", "control"):
                conn.execute(f"DELETE FROM {table}")
            for path, meta in state["paths"].items():
                conn.execute(
                    "INSERT INTO paths (path, schema_json, position) VALUES (?, ?, ?)",
                    (path, json.dumps(meta["schema"]), meta["position"]),
                )
            for block_id, entry in state["blocks"].items():
                self._write_logical_block(conn, block_id, entry)
                rows = committed_rows[block_id] = _block_rows(entry, None)
                self._write_block_rows(conn, block_id, rows, {})
            self._write_control(conn, state["control"])
        self._rows = committed_rows
        # Compact: return free pages, fold every write-ahead log into its database and cut it
        # to zero bytes.  (``executescript`` steps the vacuum to the end; one step frees one page.)
        for conn in (self._namenode, *self._nodes.values()):
            conn.executescript("PRAGMA incremental_vacuum;")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def load_state(self) -> dict:
        """Read the whole journal back into the encoded-state dict ``restore_system`` takes.

        Driven entirely off ``namenode.db``; node databases are consulted only for payload
        bytes of replicas the directory references, so crash-window orphans never surface.
        A referenced node database that does not exist, or lacks the payload row, raises
        :class:`~repro.persist.state.JournalCorruptError` naming the replica and the file.
        """
        state = state_mod.empty_state()
        conn = self._namenode
        for path, schema_json, position in conn.execute(
            "SELECT path, schema_json, position FROM paths"
        ):
            state["paths"][path] = {"schema": json.loads(schema_json), "position": position}
        for row in conn.execute(
            "SELECT block_id, path, num_records, bad_lines_json, text_size_bytes FROM blocks"
        ):
            block_id, path, num_records, bad_lines_json, text_size = row
            state["blocks"][block_id] = {
                "path": path,
                "num_records": num_records,
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
        for block_id, datanode_id, info_json, meta_json, crcs_blob in conn.execute(
            "SELECT block_id, datanode_id, info_json, meta_json, crcs_blob FROM dir_rep"
        ):
            node_path = self.directory / state_mod.node_db_name(datanode_id)
            missing = (
                f"namenode.db references a replica of block {block_id} on datanode"
                f" {datanode_id}, but {node_path}"
            )
            if datanode_id not in self._nodes and not node_path.exists():
                raise state_mod.JournalCorruptError(f"{missing} does not exist")
            payload_row = self._node(datanode_id).execute(
                "SELECT payload_blob FROM replicas WHERE block_id = ? AND payload_crc = ?",
                (block_id, _payload_crc(crcs_blob)),
            ).fetchone()
            if payload_row is None:
                raise state_mod.JournalCorruptError(f"{missing} holds no payload row for it")
            state["blocks"][block_id]["replicas"][datanode_id] = {
                "info": None if info_json is None else json.loads(info_json),
                "payload_blob": payload_row[0],
                "crcs_blob": crcs_blob,
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
