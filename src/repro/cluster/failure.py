"""Failure injection for the fault-tolerance experiment (Section 6.4.3).

The paper kills all Java processes on one randomly chosen node after 50% of job progress and
sets the TaskTracker/datanode expiry interval to 30 seconds.  :class:`FailureInjector`
reproduces that protocol against the simulated cluster.

:class:`ConcurrentChaos` bundles the faults one map phase can suffer at once: a node death at
an absolute phase time, individual task-attempt failures, and straggler nodes whose attempts
run slower by a constant factor (timeline only — functional output is never altered).  It is
the only fault plan the JobTracker's scheduling loop understands: a multi-tenant batch
(:meth:`~repro.mapreduce.job_tracker.JobTracker.run_concurrent_map_phases`) passes one in
directly, and the single-job Figure 8 run
(:meth:`~repro.mapreduce.job_tracker.JobTracker.run_map_phase`) wraps its
:class:`FailureEvent` and kill time in one; see ``docs/scheduling.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.cluster.topology import Cluster


@dataclass(frozen=True)
class FailureEvent:
    """A scheduled node failure.

    Attributes
    ----------
    node_id:
        The node that fails.
    at_progress:
        Fraction of job progress (0..1) after which the failure strikes.
    expiry_interval_s:
        Seconds the framework waits before declaring the node dead (Hadoop's expiry interval).
    """

    node_id: int
    at_progress: float
    expiry_interval_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_progress <= 1.0:
            raise ValueError("at_progress must lie in [0, 1]")
        if self.expiry_interval_s < 0:
            raise ValueError("expiry interval must be non-negative")


@dataclass(frozen=True)
class TaskFailureSpec:
    """One injected map-task failure inside a map phase.

    The targeted attempt runs to its natural finish, then *fails*: its output and counters
    are discarded and the task is requeued (counted in ``RESCHEDULED_MAP_TASKS``).  The
    first ``attempts`` attempt numbers of the task are doomed, so ``attempts=2`` makes the
    task fail twice before its third attempt sticks — Hadoop's retry ladder in miniature.
    """

    job_index: int
    task_id: int
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.job_index < 0 or self.task_id < 0:
            raise ValueError("job_index and task_id must be non-negative")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def dooms(self, job_index: int, task_id: int, attempt: int) -> bool:
        """Whether this spec fails the given attempt of the given task."""
        return (
            job_index == self.job_index
            and task_id == self.task_id
            and attempt <= self.attempts
        )


@dataclass
class ConcurrentChaos:
    """The fault plan one map phase (a single job or an interleaved batch) runs under.

    Attributes
    ----------
    node_failure:
        A node death; ``kill_time_s`` places it on the phase's absolute simulated timeline
        (the event's own ``at_progress`` is ignored here — a batch has no single job-progress
        fraction to anchor it to; the single-job runner converts it to a kill time first).
        Attempts running on the node at the kill are lost and requeued after the event's
        expiry interval — this is the Figure 8 path.
    kill_time_s:
        Absolute batch time at which ``node_failure`` strikes.  Required iff a
        ``node_failure`` is given.
    task_failures:
        Injected per-attempt task failures (see :class:`TaskFailureSpec`).
    slow_nodes:
        Straggler injection: attempts launched on ``node_id`` take ``factor`` times as long
        on the simulated timeline.  Factors must be >= 1; functional output is unaffected,
        which is what lets speculation's answers stay bit-identical.
    """

    node_failure: Optional[FailureEvent] = None
    kill_time_s: Optional[float] = None
    task_failures: tuple[TaskFailureSpec, ...] = ()
    slow_nodes: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.node_failure is None) != (self.kill_time_s is None):
            raise ValueError("node_failure and kill_time_s must be given together")
        if self.kill_time_s is not None and self.kill_time_s < 0:
            raise ValueError("kill_time_s must be non-negative")
        self.task_failures = tuple(self.task_failures)
        for factor in self.slow_nodes.values():
            if factor < 1.0:
                raise ValueError("straggler slow-down factors must be >= 1")

    def slow_factor(self, node_id: int) -> float:
        """Straggler slow-down multiplier for attempts launched on ``node_id``."""
        return float(self.slow_nodes.get(node_id, 1.0))

    def dooms(self, job_index: int, task_id: int, attempt: int) -> bool:
        """Whether any injected task failure fails this attempt."""
        return any(spec.dooms(job_index, task_id, attempt) for spec in self.task_failures)


class FailureInjector:
    """Creates :class:`FailureEvent` instances against a cluster."""

    def __init__(self, cluster: Cluster, seed: int = 0) -> None:
        self._cluster = cluster
        self._rng = random.Random(seed)

    def random_node_failure(
        self,
        at_progress: float = 0.5,
        expiry_interval_s: float = 30.0,
        exclude: Optional[set[int]] = None,
    ) -> FailureEvent:
        """Pick a random alive node to fail at ``at_progress`` of job progress."""
        exclude = exclude or set()
        candidates = [node.node_id for node in self._cluster.alive_nodes if node.node_id not in exclude]
        if not candidates:
            raise RuntimeError("no alive node available to fail")
        node_id = self._rng.choice(candidates)
        return FailureEvent(node_id=node_id, at_progress=at_progress, expiry_interval_s=expiry_interval_s)

    def node_failure(
        self, node_id: int, at_progress: float = 0.5, expiry_interval_s: float = 30.0
    ) -> FailureEvent:
        """Fail a specific node (deterministic variant used in tests)."""
        if not self._cluster.has_node(node_id):
            raise KeyError(f"node {node_id} is not part of the cluster")
        return FailureEvent(node_id=node_id, at_progress=at_progress, expiry_interval_s=expiry_interval_s)
