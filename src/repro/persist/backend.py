"""Crash injection for the journal, and the checkpoint it inherits.

:class:`~repro.persist.sqlite_backend.SqliteBackend` calls an armed :class:`CrashPoint` at
every journal write site: ``"sync_path"`` and ``"sync_control"`` before their write, and a
``sync_block``'s mutation site (``"mid_upload"``, ``"mid_adaptive_commit"``,
``"mid_eviction"``, ``"mid_rebalance"``) between its node commits and its namenode commit.
The concurrent runner adds the ``"mid_concurrent_batch"`` barrier between job completions of
an interleaved batch.  The crash matrix (``tests/test_persist_crash_matrix.py``) kills each
site and proves restore stays consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.persist import state as state_mod


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


class Checkpointing:
    """``checkpoint``, the one method :class:`~repro.persist.sqlite_backend.SqliteBackend`
    inherits: ``bench/trace.py`` times it as an inherited method, which
    ``bench/test_trace.py`` pins."""

    def checkpoint(self, system) -> None:
        """Replace the whole journal with a fresh full capture of ``system``'s durable state."""
        state, sources = state_mod.capture_system(system)
        self._store_state(state)
        self._committed = sources
