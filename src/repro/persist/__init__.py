"""Pluggable per-node persistence: journaling backends, crash injection, checkpoint/restore.

Everything PRs 2–6 taught a deployment to learn — adaptive replicas, ``Dir_rep`` entries,
zone-map synopses, tuner ledgers, eviction tombstones — used to live only in process
memory; this package makes that state durable so a killed deployment can be reopened with
its learned index pool intact and convergence *resumes* instead of restarting from zero.

Two backends implement one protocol (:class:`~repro.persist.backend.PersistenceBackend`):

- ``"memory"`` — :class:`~repro.persist.backend.MemoryBackend`, a process-global in-memory
  journal: the full contract (including crash injection) without touching disk.
- ``"sqlite"`` — :class:`~repro.persist.sqlite_backend.SqliteBackend`, one WAL-mode SQLite
  database per node plus an authoritative ``namenode.db``.

Both default **off** (``HailConfig.persistence == "off"``); enable via
``HailConfig.with_persistence()``.  Operator guide: ``docs/persistence.md``.
"""

from __future__ import annotations

from typing import Optional

from repro.persist.backend import (
    CrashInjected,
    CrashPoint,
    MemoryBackend,
    PersistenceBackend,
    reset_memory_stores,
)
from repro.persist.sqlite_backend import SqliteBackend
from repro.persist.state import JournalCorruptError, checkpoint_state, restore_system

__all__ = [
    "CrashInjected",
    "CrashPoint",
    "JournalCorruptError",
    "MemoryBackend",
    "PersistenceBackend",
    "SqliteBackend",
    "checkpoint_state",
    "create_backend",
    "reset_memory_stores",
    "restore_system",
]


def create_backend(kind: str, directory: Optional[str]) -> PersistenceBackend:
    """Instantiate the configured backend (``HailConfig.persistence`` → backend object)."""
    if directory is None:
        raise ValueError(f"persistence backend {kind!r} needs a persistence_dir")
    if kind == "memory":
        return MemoryBackend(directory)
    if kind == "sqlite":
        return SqliteBackend(directory)
    raise ValueError(f"unknown persistence backend {kind!r}; known: memory, sqlite")
