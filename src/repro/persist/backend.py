"""The persistence-backend protocol, crash injection, and the in-memory default.

A backend journals the deployment's durable state — Dir_block/Dir_rep, block payloads,
zone-map synopses, usage statistics, eviction tombstones, and the adaptive tuner's control
state — at every existing mutation point (upload, adaptive commit, eviction downgrade,
balancer rebuild/migrate).  The hooks all funnel through three calls:

- :meth:`PersistenceBackend.sync_path` — a new file entered the namespace (upload start);
- :meth:`PersistenceBackend.sync_block` — one block's state changed; the backend
  re-captures that block's directory state *from the authoritative in-memory namenode* and
  replaces it in a single transaction (no incremental diffing, no drift); byte blobs are
  written only for objects it has not committed yet ("Delta syncs" below);
- :meth:`PersistenceBackend.sync_control` — scalar control state changed (adaptive salt,
  tuner knobs, balancer demand).

``sync_block`` carries a ``site`` label naming the mutation point (``"mid_upload"``,
``"mid_adaptive_commit"``, ``"mid_eviction"``, ``"mid_rebalance"``) so the fault-injection
harness (:class:`CrashPoint`) can kill the journal write at an exact site and the crash
matrix (``tests/test_persist_crash_matrix.py``) can prove restore stays consistent from any
of them.  The concurrent runner additionally calls :meth:`PersistenceBackend.barrier` with
site ``"mid_concurrent_batch"`` between job completions of an interleaved batch, so the
matrix can kill a multi-tenant batch halfway and verify the already-completed jobs'
durable state survives restore.  Crash semantics per backend:

- :class:`MemoryBackend` crashes *before* applying the update — the journal keeps the
  pre-mutation state, modelling a process killed before the write hit the store.
- :class:`~repro.persist.sqlite_backend.SqliteBackend` crashes *between* the per-node
  payload commits and the namenode-DB commit — the node DBs hold orphan rows the namenode
  journal does not reference, modelling the worst-case multi-file crash window.  Restore
  treats the namenode DB as the single source of truth and ignores orphans.

**Delta syncs.**  A backend instance remembers, per block, the *blob sources* of the entry
it last committed (:func:`repro.persist.state.capture_block`: the replicas' ``PaxBlock``
objects and the ``LogicalBlock`` — references to objects the deployment holds anyway, never
bytes).  Blocks are immutable, so a source that is still the same object is neither
re-encoded nor re-written: an adaptive commit writes one payload, not four blobs.  The
record is updated only after the journal write succeeded, starts empty in every new backend
(the first sync of a block writes everything) and is re-seeded by ``checkpoint()``.  A miss
costs one redundant write; a hit can only name bytes this instance itself committed.

Backends default off (``HailConfig.persistence == "off"``); see ``docs/persistence.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.persist import state as state_mod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.layouts.schema import Schema


class CrashInjected(RuntimeError):
    """Raised by an armed :class:`CrashPoint` to simulate a kill at a journal write site."""


@dataclass
class CrashPoint:
    """Fault injection: kill the journal write at the ``(after + 1)``-th hit of ``site``.

    Arm a backend with ``backend.crash_point = CrashPoint("mid_upload", after=2)`` and the
    third ``sync_block`` carrying that site raises :class:`CrashInjected` mid-write.  The
    point disarms after firing so the subsequent restore (which replays syncs while
    rebuilding state) proceeds normally — one crash per armed point, like a real kill.
    """

    site: str
    after: int = 0
    fired: bool = False

    def check(self, site: str) -> None:
        """Count a journal write at ``site``; raise when this point's trigger is reached."""
        if self.fired or site != self.site:
            return
        if self.after > 0:
            self.after -= 1
            return
        self.fired = True
        raise CrashInjected(f"injected crash at journal write site {site!r}")


class PersistenceBackend:
    """Interface every backend implements (and the base of both shipped backends).

    Subclasses implement :meth:`_store_state` / :meth:`load_state` over the encoded-state
    dict produced by :mod:`repro.persist.state`; the journaling entry points here share the
    capture and crash-injection logic so the two backends agree on semantics.
    """

    def __init__(self) -> None:
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
        """A crash site that is *not* a journal write (e.g. ``"mid_concurrent_batch"``).

        Journals nothing; it only gives the fault-injection harness a named point between
        two already-journaled operations at which an armed :class:`CrashPoint` can kill the
        process.
        """
        self._maybe_crash(site)

    # ------------------------------------------------------------------ journaling hooks
    def sync_path(self, path: str, schema: "Schema") -> None:
        """Journal a newly created file path and its schema (called at upload start)."""
        raise NotImplementedError

    def sync_block(self, hdfs, block_id: int, site: str) -> None:
        """Re-journal one block's state from the in-memory namenode.

        ``site`` names the mutation point for crash injection; the capture itself is
        site-independent — whatever the namenode currently says about the block is what
        gets journaled: directory state wholesale, blobs unless already committed.
        """
        raise NotImplementedError

    def sync_control(self, control: dict) -> None:
        """Merge updated control scalars (salt, tuner, demand) into the journal."""
        raise NotImplementedError

    # ------------------------------------------------------------------ checkpoint/restore
    def checkpoint(self, system) -> None:
        """Replace the whole journal with a fresh full capture of ``system``'s durable state."""
        state, sources = state_mod.capture_system(system)
        self._store_state(state)
        self._committed = sources

    def load_state(self) -> dict:
        """The journaled state in the encoded form :func:`repro.persist.state.restore_system` takes."""
        raise NotImplementedError

    def _store_state(self, state: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (no-op unless the backend holds files open)."""


#: Process-global stores of the in-memory backend, keyed by ``persistence_dir``: a restore
#: in the same process under the same config key finds the journal a "killed" deployment
#: left behind, which is exactly the restart model the crash matrix exercises.
_MEMORY_STORES: dict[str, dict] = {}


class MemoryBackend(PersistenceBackend):
    """The no-op-durability default: journals into a process-global in-memory store.

    Offers the full backend contract — journaling hooks, crash injection, checkpoint and
    restore — without touching disk, so tests and experiments can exercise kill-and-restart
    semantics cheaply.  Durability is process-lifetime only: the store survives the
    *deployment* being dropped (that is the simulated crash) but not the Python process.
    """

    def __init__(self, key: str) -> None:
        super().__init__()
        self.key = key
        self._store = _MEMORY_STORES.setdefault(key, state_mod.empty_state())

    def sync_path(self, path: str, schema: "Schema") -> None:
        """Record the path/schema pair in the in-memory store."""
        self._maybe_crash("sync_path")
        state_mod.apply_path(self._store, path, schema)

    def sync_block(self, hdfs, block_id: int, site: str) -> None:
        """Capture the block from the namenode and replace its store entry atomically."""
        captured, sources = state_mod.capture_block(
            hdfs, block_id, self._committed.get(block_id, {})
        )
        control = state_mod.capture_namenode_control(hdfs.namenode)
        # Crash *before* applying: the journal keeps the pre-mutation state, as if the
        # process died before the write reached the store.
        self._maybe_crash(site)
        # A blob the capture left out is one this instance stored from the same object.
        previous = self._store["blocks"].get(block_id)
        if "records_blob" not in captured:
            captured["records_blob"] = previous["records_blob"]
        for datanode_id, stored in captured["replicas"].items():
            if "payload_blob" not in stored:
                stored["payload_blob"] = previous["replicas"][datanode_id]["payload_blob"]
        self._store["blocks"][block_id] = captured
        self._store["control"].update(control)
        self._committed[block_id] = sources

    def sync_control(self, control: dict) -> None:
        """Merge the control scalars into the store's control map."""
        self._maybe_crash("sync_control")
        self._store["control"].update(control)

    def load_state(self) -> dict:
        """The live store itself (no copy — restore reads, never mutates, it)."""
        return self._store

    def _store_state(self, state: dict) -> None:
        self._store.clear()
        self._store.update(state)
        _MEMORY_STORES[self.key] = self._store


def reset_memory_stores() -> None:
    """Drop every process-global in-memory journal (test isolation helper)."""
    _MEMORY_STORES.clear()
