"""Per-node persistence: the SQLite journal, crash injection, checkpoint/restore.

Everything PRs 2–6 taught a deployment to learn — adaptive replicas, ``Dir_rep`` entries,
zone-map synopses, the tuner's ledger, eviction tombstones — used to live only in process
memory; this package makes that state durable so a killed deployment can be reopened with
its learned index pool intact and convergence *resumes* instead of restarting from zero.

The journal is :class:`~repro.persist.sqlite_backend.SqliteBackend`: one WAL-mode SQLite
database per node plus an authoritative ``namenode.db``.  It is off by default and on
exactly when ``HailConfig.persistence_dir`` is set (``HailConfig.with_persistence()``).
Operator guide: ``docs/persistence.md``.
"""

from __future__ import annotations

from repro.persist.backend import CrashInjected, CrashPoint
from repro.persist.sqlite_backend import SqliteBackend
from repro.persist.state import JournalCorruptError, checkpoint_state, restore_system

__all__ = [
    "CrashInjected",
    "CrashPoint",
    "JournalCorruptError",
    "SqliteBackend",
    "checkpoint_state",
    "restore_system",
]
