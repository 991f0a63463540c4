"""The JobTracker: schedules map tasks onto TaskTracker slots and simulates the map phase.

The scheduler follows Hadoop's behaviour at the level of abstraction that matters for the
paper's results:

- every TaskTracker offers a fixed number of map slots; whenever a slot frees up, the scheduler
  hands it the next task, preferring a task whose input split is local to that node
  (data-locality scheduling, Section 4.2);
- every task pays a fixed scheduling/launch overhead on top of its record-reader and map time,
  which is the framework overhead that dominates short index-assisted jobs (Section 6.4.1);
- on a node failure, running tasks of that node are lost, the failure is only noticed after the
  expiry interval, and the lost tasks are re-executed on other nodes (Section 6.4.3).  Map tasks
  that re-execute may have to fall back to another replica — possibly one without the matching
  index, which is exactly the HAIL vs. HAIL-1Idx difference in Figure 8.

There is exactly **one** scheduling loop, :meth:`_MapPhase.run`.
:meth:`JobTracker.run_map_phase` (the single-job phase the paper measures, including the
Figure 8 node kill) wraps its tasks in one :class:`ConcurrentJob` and runs the same loop that
:meth:`JobTracker.run_concurrent_map_phases` uses to interleave map tasks from **multiple
in-flight jobs** over the slot pool — the service side of HAIL's "aggressive elephants"
story, where indexing piggybacks on heavy multi-tenant traffic.  A serial job is the
one-job, ``max_concurrent_jobs=1`` case: it is admitted at time 0 (``TENANT_JOBS_ADMITTED``
= 1, ``SCHED_QUEUE_WAIT_SECONDS`` = 0.0), nothing competes with it, and a job with no map
tasks at all (every split zone-pruned) simply finishes at admission.

Each turn of the loop takes the earliest-free slot and passes five decision points, each one
:class:`_MapPhase` method (a mechanism that is switched off costs one test at its own site;
all default off, so the pinned Figure 6/7/8 goldens stay bit-identical):

- **admit** — :meth:`~_MapPhase.admit` lets arrived jobs past the :class:`ConcurrencyPolicy`
  admission gate (``max_concurrent_jobs``, ``tenant_admission_limit``), earliest deadline
  first; with ``preemption``, :meth:`~_MapPhase.tenant_allowance` then re-divides the pool
  into weighted per-tenant entitlements and :meth:`~_MapPhase.preempt` revokes the newest
  attempts of a tenant above its share (kill + requeue, at most ``max_preemptions_per_job``
  per job);
- **pick-next** — :meth:`~_MapPhase.eligible` keeps the jobs whose tenant is not
  :meth:`~_MapPhase.at_limit` (``tenant_slot_quota`` or the preemption entitlement),
  :meth:`~_MapPhase.choose` serves one fairly (weighted by ``tenant_weights``, ties earliest
  deadline first) or FIFO, and :meth:`~_MapPhase.pick_task` takes its index-local, then
  data-local, then head-of-queue task;
- **on-finish** — :meth:`~_MapPhase.settle_until` resolves every attempt that ended by the
  slot's instant: :meth:`~_MapPhase.settle` accepts it (merging its private scratch counters
  into the job's bag, so a node-death casualty, a discarded speculative loser or a preempted
  attempt never double-counts), discards a speculative loser, or requeues an injected task
  failure; accepted attempts are handed back in *launch* order;
- **on-idle** — when nothing regular is runnable, :meth:`~_MapPhase.idle` launches a
  speculative backup of the worst straggler (``speculative_execution``; first finisher wins)
  or else parks the slot at the next settlement or arrival;
- **on-node-death** — :meth:`~_MapPhase.strike` kills the
  :class:`~repro.cluster.failure.ConcurrentChaos` node at its ``kill_time_s``
  (``run_map_phase`` builds the plan from its ``failure``/``kill_time_s``), removes its slots
  and requeues its attempts after the expiry interval; requeued tasks re-enter the same
  eligibility gate, so rescheduling respects tenant quotas.  The plan's ``task_failures``
  and ``slow_nodes`` act at launch (:meth:`~_MapPhase.launch`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Mapping, Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.failure import ConcurrentChaos, FailureEvent
from repro.cluster.topology import Cluster
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.task import MapTask, MapTaskResult
from repro.mapreduce.task_tracker import TaskTracker

#: How many queued tasks the scheduler inspects when looking for a node-local task.
_LOCALITY_SEARCH_WINDOW = 256

#: ``JobConf.properties`` flag for index-aware scheduling (Section 4.3 extension), set to
#: ``True`` by ``HailSystem`` when ``HailConfig.index_aware_scheduling`` is on.  Without it
#: the scheduler is stock Hadoop: a free slot takes a *data-local* task, else the queue head.
#: With it, a task with an **indexed** replica on the slot's node
#: (``InputSplit.index_locations``) comes first, and every launch is classified into the
#: ``SCHED_INDEX_LOCAL`` / ``SCHED_PLAIN_LOCAL`` / ``SCHED_REMOTE`` counters.
SCHEDULING_PROPERTY = "hail.scheduling"


@dataclass(frozen=True)
class ConcurrencyPolicy:
    """How the JobTracker shares its slot pool between concurrently in-flight jobs.

    ``max_concurrent_jobs`` is the admission gate: at most this many jobs are *in flight*
    (queued tasks remaining, or attempts still running) at any simulated instant; the rest
    wait in submission order.  ``tenant_admission_limit`` additionally caps how many of those
    in-flight jobs may belong to one tenant — a saturating tenant cannot monopolize admission,
    and later jobs from other tenants overtake its held-back ones (counted per job in
    ``TENANT_ADMISSION_WAITS``).  ``tenant_slot_quota`` caps a tenant's *simultaneously
    running map tasks* across all its admitted jobs; a job whose tenant is at quota defers
    (``TENANT_QUOTA_DEFERRALS`` counts deferral episodes) until one of the tenant's attempts
    finishes.  ``queue_policy`` picks among the eligible jobs at each free slot: ``"fair"``
    serves the tenant with the fewest running tasks (ties: earliest deadline, least-served
    job, then submission order), ``"fifo"`` always serves the oldest admitted job.

    The hardening knobs (all default off):

    - ``speculative_execution`` launches a backup attempt for a suspected straggler when a
      freed slot has no regular work; an attempt is a straggler candidate when its projected
      duration exceeds :data:`SPECULATIVE_SLOWDOWN` times the :data:`SPECULATIVE_PERCENTILE`
      percentile of the job's *completed* attempt durations.  Backups obey tenant quotas and
      never land on the node already running the original.
    - ``preemption`` revokes running attempts from a tenant exceeding its weighted slot
      entitlement (``alive_slots * weight / sum(weights)`` over tenants with in-flight
      work, capped by ``tenant_slot_quota``), at most ``max_preemptions_per_job`` kills per
      victim job.  Without competition (one tenant in flight) nothing is ever revoked.
    - ``tenant_weights`` (a mapping or tuple of ``(tenant, weight)`` pairs, normalized to a
      sorted tuple so the policy stays hashable) scale both the fair queue and the
      preemption entitlements; unlisted tenants weigh ``1.0``.
    """

    max_concurrent_jobs: int = 1
    queue_policy: str = "fair"
    tenant_slot_quota: Optional[int] = None
    tenant_admission_limit: Optional[int] = None
    speculative_execution: bool = False
    preemption: bool = False
    max_preemptions_per_job: int = 2
    tenant_weights: Optional[tuple[tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        if self.max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        if self.queue_policy not in ("fair", "fifo"):
            raise ValueError(f"queue_policy must be 'fair' or 'fifo', got {self.queue_policy!r}")
        if self.tenant_slot_quota is not None and self.tenant_slot_quota < 1:
            raise ValueError("tenant_slot_quota must be >= 1 when set")
        if self.tenant_admission_limit is not None and self.tenant_admission_limit < 1:
            raise ValueError("tenant_admission_limit must be >= 1 when set")
        if self.max_preemptions_per_job < 0:
            raise ValueError("max_preemptions_per_job must be non-negative")
        if self.tenant_weights is not None:
            pairs = (
                self.tenant_weights.items()
                if isinstance(self.tenant_weights, Mapping)
                else self.tenant_weights
            )
            normalized = tuple(sorted((str(t), float(w)) for t, w in pairs))
            for tenant, weight in normalized:
                if weight <= 0:
                    raise ValueError(f"tenant weight for {tenant!r} must be > 0")
            object.__setattr__(self, "tenant_weights", normalized)

    def weight(self, tenant: str) -> float:
        """Fair-share weight of ``tenant`` (1.0 unless listed in ``tenant_weights``)."""
        if self.tenant_weights:
            for name, weight in self.tenant_weights:
                if name == tenant:
                    return weight
        return 1.0


@dataclass
class ScheduledTask:
    """One (possibly re-executed) task attempt placed on the simulated timeline."""

    task: MapTask
    node_id: int
    start_s: float
    finish_s: float
    result: MapTaskResult
    attempt: int = 1

    @property
    def duration_s(self) -> float:
        """Wall-clock duration of the attempt including scheduling overhead."""
        return self.finish_s - self.start_s


@dataclass
class ScheduleOutcome:
    """Result of simulating one job's map phase.

    ``scheduled`` holds the *accepted* attempts — lost, failed, preempted and discarded
    speculative attempts are excluded — in launch order.  ``num_slots`` is the number of
    slots still *alive* when the phase ended — after a node failure it counts only surviving
    slots, and a phase that somehow ends with every slot dead reports 0 (consumers computing
    per-slot averages must guard, as the runner does).

    Every launch recorded in the job's ``LAUNCHED_MAP_TASKS`` is either an accepted attempt
    in ``scheduled`` or exactly one of a speculative discard, a preemption kill, or a
    reschedule (task failure / node death; ``rescheduled`` counts those) —
    ``tests/test_multi_tenant.py`` pins this identity on the counters.
    """

    scheduled: list[ScheduledTask]
    makespan_s: float
    num_slots: int
    rescheduled: int = 0
    failure_node: Optional[int] = None


@dataclass
class ConcurrentJob:
    """One job submitted to a concurrent map phase (input descriptor).

    Each job brings its **own** counter bag, so per-tenant accounting never bleeds across
    jobs sharing the slot pool; ``tenant`` labels the job for admission control, quotas and
    the fair queue policy.  ``submit_s`` places the submission on the batch timeline (jobs
    are not considered for admission before it), and ``deadline_s`` marks a soft completion
    deadline: it sharpens admission and fair-queue tie-breaks to earliest-deadline-first and
    is settled into ``DEADLINE_JOBS_MET``/``DEADLINE_JOBS_MISSED`` when the job finishes.
    """

    tasks: list[MapTask]
    counters: Counters
    tenant: str = "default"
    submit_s: float = 0.0
    deadline_s: Optional[float] = None


@dataclass
class ConcurrentJobOutcome:
    """Per-job result of a concurrent map phase, on the shared absolute timeline.

    Unlike a solo :class:`ScheduleOutcome` (whose makespan starts at 0), every time here is
    absolute on the batch timeline: ``admitted_s`` is when the admission gate let the job in,
    ``first_launch_s`` when its first map task started (``first_launch_s`` minus the job's
    ``submit_s`` is the queueing delay recorded in ``SCHED_QUEUE_WAIT_SECONDS``, admission
    wait included), and ``finish_s`` when its last map attempt completed — so the embedded
    ``outcome.makespan_s`` equals ``finish_s`` and *includes* time spent waiting behind
    other tenants' work.
    """

    outcome: ScheduleOutcome
    tenant: str
    admitted_s: float
    first_launch_s: float
    finish_s: float
    interleaved: bool = False
    #: ``None`` for jobs without a deadline; otherwise whether ``finish_s <= deadline_s``.
    deadline_met: Optional[bool] = None


@dataclass
class _JobState:
    """Scheduler-internal bookkeeping for one job in a concurrent phase."""

    index: int
    job: ConcurrentJob
    queue: Deque[_QueuedTask]
    #: Whether the job's conf carries :data:`SCHEDULING_PROPERTY`.
    index_aware: bool
    admitted_s: Optional[float] = None
    first_launch_s: Optional[float] = None
    max_finish_s: float = 0.0
    launched: int = 0
    #: Unsettled (still-running) attempts of this job — the admission/quota currency.
    active: int = 0
    #: Durations of *accepted* attempts (the speculation percentile's sample).
    durations: list[float] = field(default_factory=list)
    preemptions: int = 0
    rescheduled: int = 0
    #: Accepted attempts by launch number: settled in finish order, handed back in launch
    #: order.
    scheduled: dict[int, ScheduledTask] = field(default_factory=dict)
    admission_blocked: bool = False
    quota_deferred: bool = False

    def in_flight(self) -> bool:
        """Whether the job still occupies an admission token.

        ``active`` counts unsettled attempts, which (settlement runs before every decision)
        all finish strictly after the current scheduling instant.  A job with no tasks is
        never in flight: it finishes the moment it is admitted.
        """
        return bool(self.queue) or self.active > 0

    def deadline_key(self) -> float:
        """EDF sort key: the job's deadline, or +inf when it has none."""
        return self.job.deadline_s if self.job.deadline_s is not None else math.inf


@dataclass
class _Slot:
    node_id: int
    slot_index: int
    available_s: float = 0.0


@dataclass
class _QueuedTask:
    task: MapTask
    attempt: int = 1
    not_before_s: float = 0.0


@dataclass(eq=False)
class _Running:
    """One in-flight attempt, pending settlement.

    Every attempt runs against a private ``scratch`` counter bag; settlement merges it into
    the job's bag only when the attempt is *accepted* — a discarded speculative loser, a
    preempted attempt, a node-death casualty or an injected task failure contributes launch
    bookkeeping (``LAUNCHED_MAP_TASKS``, scheduling tiers, ``SPEC_*``/``PREEMPT_*`` audit)
    but none of its functional counters, so nothing is ever double-counted.
    """

    state: _JobState
    queued: _QueuedTask
    slot: _Slot
    start_s: float
    finish_s: float
    result: MapTaskResult
    scratch: Counters
    #: Position among the job's launches (the order accepted attempts are handed back in).
    launch_no: int
    speculative: bool = False
    #: The other half of a speculative race (original <-> backup), if any.
    rival: Optional["_Running"] = None
    #: Injected task failure: run to the natural finish, then discard and requeue.
    doomed: bool = False
    #: Absolute time the attempt is killed (speculation loss, preemption, node death).
    kill_s: Optional[float] = None
    settled: bool = False

    @property
    def end_s(self) -> float:
        """When the attempt leaves its slot: its kill time if killed, else its finish."""
        return self.kill_s if self.kill_s is not None else self.finish_s

    def retry(self, not_before_s: float) -> _QueuedTask:
        """The same task queued again as its next attempt, launchable from ``not_before_s``."""
        return _QueuedTask(self.queued.task, self.queued.attempt + 1, not_before_s)


#: The straggler test of :meth:`_MapPhase.speculate`: which completed-duration percentile of
#: a job counts as "typical", and how many times over it a running attempt must project
#: before a backup attempt is justified.
SPECULATIVE_PERCENTILE = 0.75
SPECULATIVE_SLOWDOWN = 1.5


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


class JobTracker:
    """Simulates data-local, slot-based map scheduling with optional failure injection."""

    def __init__(self, cluster: Cluster, hdfs: Hdfs, cost: CostModel) -> None:
        self.cluster = cluster
        self.hdfs = hdfs
        self.cost = cost

    # ------------------------------------------------------------------ public API
    def task_trackers(self) -> list[TaskTracker]:
        """One TaskTracker per alive node with the configured number of map slots."""
        slots = self.cost.params.map_slots_per_node
        return [TaskTracker(node=node, map_slots=slots) for node in self.cluster.alive_nodes]

    def run_map_phase(
        self,
        tasks: list[MapTask],
        counters: Counters,
        failure: Optional[FailureEvent] = None,
        kill_time_s: Optional[float] = None,
    ) -> ScheduleOutcome:
        """Functionally execute and temporally schedule all map tasks of one job.

        The single-job case of the scheduling loop: the tasks run as one
        :class:`ConcurrentJob` that owns the whole slot pool.  ``failure``/``kill_time_s``
        inject a node failure at an absolute map-phase time; the caller (the runner) derives
        ``kill_time_s`` from the job progress fraction.  Giving only one of the two raises
        ``ValueError`` rather than silently running fault-free.
        """
        chaos = None
        if failure is not None or kill_time_s is not None:
            chaos = ConcurrentChaos(node_failure=failure, kill_time_s=kill_time_s)
        job = ConcurrentJob(tasks=tasks, counters=counters)
        return _MapPhase(self, [job], ConcurrencyPolicy(), chaos).run()[0].outcome

    def run_concurrent_map_phases(
        self,
        jobs: list[ConcurrentJob],
        policy: Optional[ConcurrencyPolicy] = None,
        chaos: Optional[ConcurrentChaos] = None,
    ) -> list[ConcurrentJobOutcome]:
        """Interleave the map phases of several jobs over one shared slot pool.

        Jobs enter the admission queue at their ``submit_s`` (default 0) in list order; the
        admission gate, per-tenant quotas, weights, speculation and preemption are governed
        by ``policy`` (defaults allow one job in flight: back-to-back single-job phases on a
        shared timeline).  Each job's functional work and counters stay fully isolated —
        every attempt runs against a scratch counter bag merged into the job's bag only on
        acceptance, so only the *timeline* is shared.  ``chaos`` optionally injects a node
        death, task failures and stragglers
        (:class:`~repro.cluster.failure.ConcurrentChaos`); the caller is responsible for
        reviving the killed node afterwards, as with :meth:`run_map_phase`.
        """
        return _MapPhase(self, jobs, policy or ConcurrencyPolicy(), chaos).run()


class _MapPhase:
    """One run of the scheduling loop: the slot pool, the job queues and every attempt.

    The bookkeeping is incremental: ``running`` holds only the *unsettled* attempts (at most
    one per slot) in launch order, ``by_tenant`` their per-tenant count, ``slots`` only the
    alive slots, ``admitted`` only the jobs still in flight (refreshed at admission), and
    ``allowance`` the preemption entitlements of the current turn (``None``: only the static
    quota applies).  ``kill_time`` is when the planned node death is still due (``None``: no
    plan, or already struck) and ``failure_node`` the node it took down.
    """

    def __init__(
        self,
        tracker: JobTracker,
        jobs: list[ConcurrentJob],
        policy: ConcurrencyPolicy,
        chaos: Optional[ConcurrentChaos],
    ) -> None:
        self.tracker = tracker
        self.policy = policy
        self.chaos = chaos
        self.states = [
            _JobState(
                index=index,
                job=job,
                queue=deque(_QueuedTask(task) for task in job.tasks),
                index_aware=bool(
                    job.tasks and job.tasks[0].jobconf.properties.get(SCHEDULING_PROPERTY)
                ),
            )
            for index, job in enumerate(jobs)
        ]
        self.slots = [
            _Slot(node_id=task_tracker.node_id, slot_index=slot_index)
            for task_tracker in tracker.task_trackers()
            for slot_index in task_tracker.slot_ids()
        ]
        self.pending: Deque[_JobState] = deque(self.states)
        self.admitted: list[_JobState] = []
        self.running: list[_Running] = []
        self.by_tenant: dict[str, int] = {}
        self.allowance: Optional[dict[str, int]] = None
        self.kill_time = chaos.kill_time_s if chaos is not None else None
        self.failure_node: Optional[int] = None

    # ------------------------------------------------------------------ the one loop
    def run(self) -> list[ConcurrentJobOutcome]:
        """Take the earliest-free slot, settle, admit, then launch, speculate or park it."""
        if not self.states:
            return []
        if not self.slots:
            raise RuntimeError("no alive TaskTracker slots available")
        while True:
            if not self.pending and not any(state.queue for state in self.admitted):
                if self.kill_time is not None and any(
                    r.end_s > self.kill_time for r in self.running
                ):
                    # The node dies while the last attempts drain: revoke and requeue.
                    self.strike()
                    continue
                doomed = [r.finish_s for r in self.running if r.doomed and r.kill_s is None]
                if doomed:
                    # An injected task failure still has to fail and requeue its task.
                    self.settle_until(min(doomed))
                    continue
                if self.policy.speculative_execution and self.running and self.slots:
                    # The final drain is where stragglers hurt most: every queue is empty,
                    # so idle slots would otherwise just park while the tail attempt runs.
                    slot = self.next_slot()
                    now = slot.available_s
                    self.settle_until(now)
                    self.allowance = self.tenant_allowance()
                    if self.idle(slot, now):
                        continue
                break
            if not self.slots:
                raise RuntimeError("scheduler ran out of usable slots with tasks still queued")
            slot = self.next_slot()
            now = slot.available_s
            if self.kill_time is not None and now >= self.kill_time:
                self.strike()
                continue
            self.settle_until(now)
            self.admit(now)
            self.allowance = self.tenant_allowance()
            self.preempt(now)
            eligible = self.eligible()
            if not eligible:
                # Nothing regular is runnable at `now` (quota/admission/arrival-bound).
                if not self.idle(slot, now) and (
                    self.pending or any(state.queue for state in self.admitted)
                ):
                    raise RuntimeError("scheduler stalled with tasks still queued")
                # Otherwise only task-less jobs were admitted: the drain check ends the phase.
                continue
            state = self.choose(eligible)
            queued = self.pick_task(state, slot)
            if self.kill_time is not None and max(now, queued.not_before_s) >= self.kill_time:
                # The failure strikes before this assignment: put the task back first.
                state.queue.appendleft(queued)
                self.strike()
                continue
            self.launch(state, queued, slot, now)
        self.settle_until(math.inf)
        return self.outcomes()

    def next_slot(self) -> _Slot:
        """The alive slot that frees up first (ties: pool order)."""
        return min(self.slots, key=lambda slot: slot.available_s)

    # ------------------------------------------------------------------ admit
    def admit(self, now: float) -> None:
        """Move pending jobs into the in-flight set while the admission gate allows.

        Only jobs that have *arrived* (``submit_s <= now``) are considered, earliest
        deadline first (ties: submission order, which reproduces the old strict submission
        order for deadline-less batches).  A job held back by its tenant's
        ``tenant_admission_limit`` does not block later jobs from *other* tenants — they
        overtake it (no head-of-line blocking across tenants).  Jobs that finished since the
        last admission leave ``admitted`` here, and a job with no map tasks finishes on the
        spot (it never holds an admission token).
        """
        limit = self.policy.tenant_admission_limit
        while self.pending:
            arrived = [state for state in self.pending if state.job.submit_s <= now]
            if not arrived:
                return
            self.admitted = [state for state in self.admitted if state.in_flight()]
            if len(self.admitted) >= self.policy.max_concurrent_jobs:
                return
            chosen = None
            for state in sorted(arrived, key=lambda s: (s.deadline_key(), s.index)):
                tenant = state.job.tenant
                if limit is not None and (
                    sum(1 for other in self.admitted if other.job.tenant == tenant) >= limit
                ):
                    state.admission_blocked = True
                    continue
                chosen = state
                break
            if chosen is None:
                return
            self.pending.remove(chosen)
            chosen.admitted_s = now
            if not chosen.queue:
                chosen.max_finish_s = now
            self.admitted.append(chosen)
            chosen.job.counters.increment(Counters.TENANT_JOBS_ADMITTED)
            if chosen.admission_blocked:
                chosen.job.counters.increment(Counters.TENANT_ADMISSION_WAITS)

    def tenant_allowance(self) -> Optional[dict[str, int]]:
        """Weighted slot entitlement per tenant with in-flight work, or ``None``.

        ``None`` (preemption off, or no competition) means only the static quota applies.
        Entitlements shrink when a new tenant's job arrives or a node death shrinks the
        pool — which is precisely when preemption has revocation work to do.
        """
        policy = self.policy
        if not policy.preemption:
            return None
        demand: dict[str, float] = {}
        for state in self.admitted:
            if state.in_flight():
                demand.setdefault(state.job.tenant, policy.weight(state.job.tenant))
        if len(demand) <= 1:
            return None
        total = sum(demand.values())
        allowance: dict[str, int] = {}
        for tenant, weight in demand.items():
            share = max(1, int(len(self.slots) * weight / total))
            if policy.tenant_slot_quota is not None:
                share = min(share, policy.tenant_slot_quota)
            allowance[tenant] = share
        return allowance

    def preempt(self, now: float) -> None:
        """Revoke running attempts from tenants above their weighted entitlement.

        Victims are picked cheapest-first: speculative losers (already doomed to discard)
        before live attempts, newest launch first among those.  The surviving side of a
        race whose loser still runs is never preempted — killing it would only resurrect
        the loser, freeing nothing.  Each kill counts against the victim job's
        ``max_preemptions_per_job``.
        """
        if self.allowance is None:
            return
        for tenant in sorted(self.allowance):
            excess = self.by_tenant.get(tenant, 0) - self.allowance[tenant]
            if excess <= 0:
                continue
            victims = sorted(
                (r for r in self.running if r.state.job.tenant == tenant),
                key=lambda r: (r.kill_s is None, -r.start_s, r.state.index, r.queued.task.task_id),
            )
            for attempt in victims:
                if excess <= 0:
                    break
                if attempt.kill_s is None and attempt.rival is not None and not attempt.rival.settled:
                    continue
                state = attempt.state
                if state.preemptions >= self.policy.max_preemptions_per_job:
                    continue
                was_loser = attempt.kill_s is not None
                state.preemptions += 1
                self.retire(attempt)
                attempt.kill_s = now
                attempt.slot.available_s = now
                counters = state.job.counters
                counters.increment(Counters.PREEMPT_ATTEMPTS_KILLED)
                counters.increment(Counters.PREEMPT_WASTED_SECONDS, now - attempt.start_s)
                if not was_loser:
                    state.queue.append(attempt.retry(now))
                excess -= 1

    # ------------------------------------------------------------------ pick-next
    def at_limit(self, tenant: str) -> bool:
        """Whether ``tenant`` already runs as many attempts as it may.

        The limit is the static ``tenant_slot_quota`` unless preemption computed a tighter
        weighted ``allowance`` for the tenant — gating launches by the same entitlement the
        preemptor enforces keeps a just-preempted tenant from immediately relaunching.
        """
        limit = (self.allowance or {}).get(tenant, self.policy.tenant_slot_quota)
        return limit is not None and self.by_tenant.get(tenant, 0) >= limit

    def eligible(self) -> list[_JobState]:
        """Admitted jobs with queued tasks whose tenant is under its slot limit."""
        eligible: list[_JobState] = []
        for state in self.admitted:
            if not state.queue:
                continue
            if self.at_limit(state.job.tenant):
                if not state.quota_deferred:
                    state.quota_deferred = True
                    state.job.counters.increment(Counters.TENANT_QUOTA_DEFERRALS)
                continue
            eligible.append(state)
        return eligible

    def choose(self, eligible: list[_JobState]) -> _JobState:
        """Pick the job the freed slot serves next (see :class:`ConcurrencyPolicy`).

        The fair key divides each tenant's running count by its weight (weight 1.0
        reproduces the unweighted order exactly) and breaks ties earliest-deadline-first
        before falling back to least-served job and submission order.
        """
        if len(eligible) == 1:
            return eligible[0]
        policy = self.policy
        if policy.queue_policy == "fifo":
            return min(eligible, key=lambda state: state.index)
        return min(
            eligible,
            key=lambda state: (
                self.by_tenant.get(state.job.tenant, 0) / policy.weight(state.job.tenant),
                state.deadline_key(),
                state.launched,
                state.index,
            ),
        )

    @staticmethod
    def pick_task(state: _JobState, slot: _Slot) -> _QueuedTask:
        """Take the job's best task for ``slot`` (data-locality scheduling).

        Stock Hadoop prefers a task whose split is local to the slot's node, else the queue
        head (a remote assignment).  An index-aware job first looks for a task with an
        *indexed* replica on the node.  Every pass searches the same bounded window stock
        Hadoop's locality search uses.
        """
        queue = state.queue
        tiers = ("index_locations", "locations") if state.index_aware else ("locations",)
        for tier in tiers:
            for position, queued in enumerate(islice(queue, _LOCALITY_SEARCH_WINDOW)):
                if slot.node_id in getattr(queued.task.split, tier):
                    del queue[position]
                    return queued
        return queue.popleft()

    def launch(
        self,
        state: _JobState,
        queued: _QueuedTask,
        slot: _Slot,
        now: float,
        speculative: bool = False,
    ) -> _Running:
        """Run one attempt on ``slot`` and register it for settlement.

        The functional execution happens here (durations are deterministic given the
        replica the reader picks), but the attempt's counters land in a private scratch bag
        and its output is published only when :meth:`settle` accepts it.  An index-aware
        launch is classified by its *achieved* placement (a task that reached its indexed
        node through the plain-locality pass still counts as ``SCHED_INDEX_LOCAL``); stock
        jobs, and the pinned Figure 6/7 golden runs, record no tier counters.
        """
        chaos = self.chaos
        start = max(now, queued.not_before_s)
        scratch = Counters()
        result = queued.task.run(self.tracker.hdfs, self.tracker.cost, slot.node_id, scratch)
        duration = self.tracker.cost.task_overhead() + result.compute_seconds
        if chaos is not None:
            duration *= chaos.slow_factor(slot.node_id)
        finish = start + duration
        slot.available_s = finish
        counters = state.job.counters
        counters.increment(Counters.LAUNCHED_MAP_TASKS)
        if state.index_aware:
            split = queued.task.split
            if slot.node_id in split.index_locations:
                counters.increment(Counters.SCHED_INDEX_LOCAL)
            elif slot.node_id in split.locations:
                counters.increment(Counters.SCHED_PLAIN_LOCAL)
            else:
                counters.increment(Counters.SCHED_REMOTE)
        attempt = _Running(
            state=state,
            queued=queued,
            slot=slot,
            start_s=start,
            finish_s=finish,
            result=result,
            scratch=scratch,
            launch_no=state.launched,
            speculative=speculative,
            doomed=(
                not speculative
                and chaos is not None
                and chaos.dooms(state.index, queued.task.task_id, queued.attempt)
            ),
        )
        self.running.append(attempt)
        tenant = state.job.tenant
        self.by_tenant[tenant] = self.by_tenant.get(tenant, 0) + 1
        state.active += 1
        state.launched += 1
        state.quota_deferred = False
        if state.first_launch_s is None:
            state.first_launch_s = start
            counters.increment(Counters.SCHED_QUEUE_WAIT_SECONDS, start - state.job.submit_s)
        return attempt

    # ------------------------------------------------------------------ on-finish
    def settle_until(self, deadline: float) -> None:
        """Settle every unsettled attempt whose slot occupancy ends by ``deadline``."""
        due = [r for r in self.running if r.end_s <= deadline]
        if len(due) > 1:
            due.sort(
                key=lambda r: (
                    r.end_s, r.state.index, r.queued.task.task_id, r.start_s, r.speculative
                )
            )
        for attempt in due:
            self.settle(attempt)

    def settle(self, attempt: _Running) -> None:
        """Resolve one finished (or killed) attempt: accept, discard, or fail-and-requeue."""
        self.retire(attempt)
        state = attempt.state
        counters = state.job.counters
        if attempt.kill_s is not None:
            # Only speculative losers settle lazily with a kill time (preemption and node
            # death settle their victims eagerly at the kill site); the winner finished
            # first, so this attempt's work is discarded — scratch counters and all.
            counters.increment(Counters.SPEC_ATTEMPTS_DISCARDED)
            counters.increment(Counters.SPEC_WASTED_SECONDS, attempt.kill_s - attempt.start_s)
            return
        if attempt.doomed:
            # Injected task failure: the attempt ran, failed at the end, and retries.
            counters.increment(Counters.RESCHEDULED_MAP_TASKS)
            state.rescheduled += 1
            state.queue.append(attempt.retry(attempt.finish_s))
            return
        counters.merge(attempt.scratch)
        state.scheduled[attempt.launch_no] = ScheduledTask(
            task=attempt.queued.task,
            node_id=attempt.slot.node_id,
            start_s=attempt.start_s,
            finish_s=attempt.finish_s,
            result=attempt.result,
            attempt=attempt.queued.attempt,
        )
        state.durations.append(attempt.finish_s - attempt.start_s)
        state.max_finish_s = max(state.max_finish_s, attempt.finish_s)
        if attempt.rival is not None:
            counters.increment(Counters.SPEC_ATTEMPTS_WON)

    def retire(self, attempt: _Running) -> None:
        """Take one attempt out of the unsettled set — every settle/kill site ends here."""
        attempt.settled = True
        self.running.remove(attempt)
        attempt.state.active -= 1
        self.by_tenant[attempt.state.job.tenant] -= 1

    # ------------------------------------------------------------------ on-idle
    def idle(self, slot: _Slot, now: float) -> bool:
        """Use a slot that has no regular work: speculate, else park it; ``False`` if neither.

        The slot is parked at the next attempt settlement or job arrival after ``now``.
        """
        if self.policy.speculative_execution and self.speculate(slot, now):
            return True
        horizon = [r.end_s for r in self.running if r.end_s > now]
        horizon += [s.job.submit_s for s in self.pending if s.job.submit_s > now]
        if not horizon:
            return False
        slot.available_s = min(horizon)
        return True

    def speculate(self, slot: _Slot, now: float) -> bool:
        """Try to launch a backup attempt for the worst straggler on the idle ``slot``.

        Candidates are running, un-raced, un-killed regular attempts of jobs with at least
        one completed attempt, projected to run longer than :data:`SPECULATIVE_SLOWDOWN` times
        the job's completed-duration percentile, on a *different* node than ``slot``, and
        whose tenant is not :meth:`at_limit`.  Durations are deterministic at launch, so the
        race resolves eagerly: the loser is killed the instant the winner finishes (ties
        favour the original), and its slot frees at that moment.
        """
        candidates = [
            attempt
            for attempt in self.running
            if not (attempt.speculative or attempt.rival is not None or attempt.doomed)
            and attempt.kill_s is None
            and attempt.finish_s > now
            and attempt.slot.node_id != slot.node_id
            and attempt.state.durations
            and attempt.finish_s - attempt.start_s
            > SPECULATIVE_SLOWDOWN * _percentile(attempt.state.durations, SPECULATIVE_PERCENTILE)
            and not self.at_limit(attempt.state.job.tenant)
        ]
        if not candidates:
            return False
        best = min(
            candidates, key=lambda a: (-a.finish_s, a.state.index, a.queued.task.task_id)
        )
        backup = self.launch(best.state, best.retry(now), slot, now, speculative=True)
        best.state.job.counters.increment(Counters.SPEC_ATTEMPTS_LAUNCHED)
        backup.rival = best
        best.rival = backup
        loser = backup if backup.finish_s >= best.finish_s else best
        winner = best if loser is backup else backup
        loser.kill_s = winner.finish_s
        loser.slot.available_s = winner.finish_s
        return True

    # ------------------------------------------------------------------ on-node-death
    def strike(self) -> None:
        """Kill the planned node now: settle up to the kill, revoke and requeue its attempts.

        The node's slots leave the pool.  A revoked attempt whose speculative rival survives
        on an alive node is *not* requeued — the rival completes the task alone (resurrected
        first if it had already lost the race), which is exactly why speculation bounds tail
        latency under node loss.
        """
        failure, kill_time = self.chaos.node_failure, self.kill_time
        node_id = failure.node_id
        self.settle_until(kill_time)
        cluster = self.tracker.cluster
        if cluster.node(node_id).is_alive:
            cluster.kill_node(node_id)
        self.slots = [slot for slot in self.slots if slot.node_id != node_id]
        for attempt in [r for r in self.running if r.slot.node_id == node_id]:
            self.retire(attempt)
            attempt.kill_s = kill_time
            state = attempt.state
            counters = state.job.counters
            rival = attempt.rival
            if rival is not None and not rival.settled and rival.slot.node_id != node_id:
                if rival.kill_s is not None:
                    rival.kill_s = None
                    rival.slot.available_s = rival.finish_s
                counters.increment(Counters.SPEC_ATTEMPTS_DISCARDED)
                counters.increment(Counters.SPEC_WASTED_SECONDS, kill_time - attempt.start_s)
                continue
            counters.increment(Counters.RESCHEDULED_MAP_TASKS)
            state.rescheduled += 1
            state.queue.append(attempt.retry(kill_time + failure.expiry_interval_s))
        self.failure_node = node_id
        self.kill_time = None

    # ------------------------------------------------------------------ outcomes
    def outcomes(self) -> list[ConcurrentJobOutcome]:
        """Wrap per-job results, flagging interleaving and settling deadlines."""
        outcomes: list[ConcurrentJobOutcome] = []
        for state in self.states:
            window_open = state.first_launch_s
            interleaved = window_open is not None and any(
                other is not state
                and other.first_launch_s is not None
                and other.first_launch_s < state.max_finish_s
                and window_open < other.max_finish_s
                for other in self.states
            )
            if interleaved:
                state.job.counters.increment(Counters.SCHED_QUEUE_JOBS_INTERLEAVED)
            deadline_met: Optional[bool] = None
            if state.job.deadline_s is not None:
                deadline_met = state.max_finish_s <= state.job.deadline_s
                state.job.counters.increment(
                    Counters.DEADLINE_JOBS_MET if deadline_met else Counters.DEADLINE_JOBS_MISSED
                )
            admitted_s = state.admitted_s if state.admitted_s is not None else 0.0
            outcomes.append(
                ConcurrentJobOutcome(
                    outcome=ScheduleOutcome(
                        scheduled=[state.scheduled[n] for n in sorted(state.scheduled)],
                        makespan_s=state.max_finish_s,
                        num_slots=len(self.slots),
                        rescheduled=state.rescheduled,
                        failure_node=self.failure_node,
                    ),
                    tenant=state.job.tenant,
                    admitted_s=admitted_s,
                    first_launch_s=window_open if window_open is not None else admitted_s,
                    finish_s=state.max_finish_s,
                    interleaved=interleaved,
                    deadline_met=deadline_met,
                )
            )
        return outcomes
