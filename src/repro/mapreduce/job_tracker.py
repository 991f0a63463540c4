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

There is exactly **one** scheduling loop.  :meth:`JobTracker.run_map_phase` (the single-job
phase the paper measures, including the Figure 8 node kill) wraps its tasks in one
:class:`ConcurrentJob` and runs the same private event loop that
:meth:`JobTracker.run_concurrent_map_phases` uses to interleave map tasks from **multiple
in-flight jobs** over the slot pool — the service side of HAIL's "aggressive elephants"
story, where indexing piggybacks on heavy multi-tenant traffic.  A serial job is the
one-job, ``max_concurrent_jobs=1`` case: it is admitted at time 0 (``TENANT_JOBS_ADMITTED``
= 1, ``SCHED_QUEUE_WAIT_SECONDS`` = 0.0), nothing competes with it, and a job with no map
tasks at all (every split zone-pruned) simply finishes at admission.

A :class:`ConcurrencyPolicy` bounds how many jobs are in flight (admission control), caps
each tenant's simultaneously running map tasks (slot quotas), and picks the next job to
serve either fairly or strictly FIFO.  The remaining decision points are inline in that one
loop (all knobs default off, so the pinned Figure 6/7/8 goldens stay bit-identical):

- **attempt isolation** — every attempt runs against a private scratch counter bag that is
  merged into the job's bag only if the attempt is *accepted*, so a node-death casualty, a
  discarded speculative loser or a preempted attempt never double-counts functional
  counters or double-commits adaptive builds; accepted attempts are handed back in
  *launch* order;
- **speculative execution** — when a freed slot finds no regular work, the scheduler may
  re-launch the slowest running attempt of a job whose projected duration exceeds a
  configurable percentile of the job's completed attempts; the first finisher wins and the
  loser's attempt is discarded;
- **failure injection** — a :class:`~repro.cluster.failure.ConcurrentChaos` plan can kill
  a node at an absolute phase time (``run_map_phase`` builds one from its
  ``failure``/``kill_time_s``), fail individual task attempts, and slow straggler nodes
  down; rescheduling respects tenant quotas because requeued tasks re-enter the same
  eligibility gate;
- **preemption** — with competition between tenants, a tenant running beyond its weighted
  slot entitlement has its newest attempts revoked (kill + requeue, bounded per job by
  ``max_preemptions_per_job``) instead of merely deferring new launches;
- **weighted fair sharing and deadlines** — ``tenant_weights`` scale the fair queue's
  notion of "fewest running tasks", and jobs carrying a ``deadline_s`` are admitted and
  served earliest-deadline-first among otherwise tied candidates, with met/missed deadlines
  counted in ``DEADLINE_JOBS_MET``/``DEADLINE_JOBS_MISSED``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
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

#: Key under which a job's :class:`SchedulingPolicy` travels in ``JobConf.properties``
#: (installed by ``HailSystem`` when ``HailConfig.index_aware_scheduling`` is on).
SCHEDULING_PROPERTY = "hail.scheduling"


@dataclass(frozen=True)
class SchedulingPolicy:
    """How the JobTracker matches queued tasks to free slots (Section 4.3 extension).

    Without a policy the scheduler reproduces stock Hadoop: prefer a task whose split is
    *data-local* to the free slot, otherwise take the queue head.  With ``index_aware`` the
    preference becomes three-tiered — a task whose split has an **indexed** replica on the
    slot's node (``InputSplit.index_locations``) beats a merely data-local task, which beats a
    remote assignment — and every launch is classified into the ``SCHED_INDEX_LOCAL`` /
    ``SCHED_PLAIN_LOCAL`` / ``SCHED_REMOTE`` counters so operators can read the achieved
    index locality off ``session.stats()``.
    """

    index_aware: bool = True


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
    ``first_launch_s`` when its first map task started (their difference plus ``admitted_s``
    is the queueing delay recorded in ``SCHED_QUEUE_WAIT_SECONDS``), and ``finish_s`` when
    its last map attempt completed — so the embedded ``outcome.makespan_s`` equals
    ``finish_s`` and *includes* time spent waiting behind other tenants' work.
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
    policy: Optional[SchedulingPolicy]
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


#: The straggler test of :meth:`JobTracker._speculate`: which completed-duration percentile of
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
        ``kill_time_s`` from the job progress fraction.
        """
        chaos = None
        if failure is not None and kill_time_s is not None:
            chaos = ConcurrentChaos(node_failure=failure, kill_time_s=kill_time_s)
        job = ConcurrentJob(tasks=tasks, counters=counters)
        return self._schedule([job], ConcurrencyPolicy(), chaos)[0].outcome

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
        return self._schedule(jobs, policy or ConcurrencyPolicy(), chaos)

    # ------------------------------------------------------------------ the one loop
    def _schedule(
        self,
        jobs: list[ConcurrentJob],
        policy: ConcurrencyPolicy,
        chaos: Optional[ConcurrentChaos],
    ) -> list[ConcurrentJobOutcome]:
        """The slot-driven event loop behind both public entry points.

        Each iteration takes the earliest-free slot, settles every attempt that ended by
        then, admits arrived jobs, and launches (or speculates, or parks the slot).  The
        bookkeeping is incremental: ``running`` holds only the *unsettled* attempts (at most
        one per slot) in launch order, ``by_tenant`` their per-tenant count, ``slots`` only
        the alive slots and ``admitted`` only the jobs still in flight.
        """
        states = [
            _JobState(
                index=index,
                job=job,
                queue=deque(_QueuedTask(task) for task in job.tasks),
                policy=(
                    job.tasks[0].jobconf.properties.get(SCHEDULING_PROPERTY) if job.tasks else None
                ),
            )
            for index, job in enumerate(jobs)
        ]
        if not states:
            return []
        slots = [
            _Slot(node_id=tracker.node_id, slot_index=slot_index)
            for tracker in self.task_trackers()
            for slot_index in tracker.slot_ids()
        ]
        if not slots:
            raise RuntimeError("no alive TaskTracker slots available")

        pending: Deque[_JobState] = deque(states)
        admitted: list[_JobState] = []
        running: list[_Running] = []
        by_tenant: dict[str, int] = {}
        #: When the planned node death is still due (``None``: no plan, or already struck).
        kill_time = chaos.kill_time_s if chaos is not None else None
        failure_node: Optional[int] = None

        def strike() -> None:
            """The node dies now: settle up to the kill, revoke and requeue its attempts."""
            nonlocal kill_time, failure_node
            self._settle_until(kill_time, running, by_tenant)
            self._strike_node(chaos.node_failure, kill_time, slots, running, by_tenant)
            failure_node = chaos.node_failure.node_id
            kill_time = None

        while True:
            if not pending and not any(state.queue for state in admitted):
                if kill_time is not None and any(r.end_s > kill_time for r in running):
                    # The node dies while the last attempts drain: revoke and requeue.
                    strike()
                    continue
                doomed = [r for r in running if r.doomed and r.kill_s is None]
                if doomed:
                    # An injected task failure still has to fail and requeue its task.
                    self._settle_until(min(r.finish_s for r in doomed), running, by_tenant)
                    continue
                if policy.speculative_execution and running and slots:
                    # The final drain is where stragglers hurt most: every queue is empty,
                    # so idle slots would otherwise just park while the tail attempt runs.
                    slot = self._next_slot(slots)
                    now = slot.available_s
                    self._settle_until(now, running, by_tenant)
                    allowance = self._tenant_allowance(policy, admitted, slots)
                    if self._speculate(slot, now, policy, chaos, running, by_tenant, allowance):
                        continue
                    # No backup launchable from this slot at this instant (it shares
                    # the straggler's node, the tenant is quota-bound, or nothing is
                    # slow enough yet): park the slot at the next settlement and look
                    # again instead of abandoning the drain.
                    horizon = [r.end_s for r in running if r.end_s > now]
                    if horizon:
                        slot.available_s = min(horizon)
                        continue
                break
            if not slots:
                raise RuntimeError("scheduler ran out of usable slots with tasks still queued")
            slot = self._next_slot(slots)
            now = slot.available_s
            if kill_time is not None and now >= kill_time:
                strike()
                continue
            self._settle_until(now, running, by_tenant)
            self._admit(pending, admitted, policy, now)
            allowance = self._tenant_allowance(policy, admitted, slots)
            self._preempt(policy, running, by_tenant, now, allowance)
            eligible = self._eligible_jobs(admitted, policy, by_tenant, allowance)
            if not eligible:
                # Nothing regular is runnable at `now` (quota/admission/arrival-bound):
                # an idle slot is speculation's opportunity before parking at the next
                # attempt completion or job arrival.
                if policy.speculative_execution and self._speculate(
                    slot, now, policy, chaos, running, by_tenant, allowance
                ):
                    continue
                horizon = [r.end_s for r in running]
                horizon += [s.job.submit_s for s in pending if s.job.submit_s > now]
                if horizon:
                    slot.available_s = min(horizon)
                elif pending or any(state.queue for state in admitted):
                    raise RuntimeError("scheduler stalled with tasks still queued")
                # Otherwise only task-less jobs were admitted: the drain check ends the phase.
                continue
            state = self._choose_job(eligible, policy, by_tenant)
            queued = self._pick_task(state.queue, slot, state.policy)
            if kill_time is not None and max(now, queued.not_before_s) >= kill_time:
                # The failure strikes before this assignment: put the task back first.
                state.queue.appendleft(queued)
                strike()
                continue
            self._launch(state, queued, slot, now, chaos, running, by_tenant, speculative=False)

        self._settle_until(math.inf, running, by_tenant)
        return self._outcomes(states, len(slots), failure_node)

    # ------------------------------------------------------------------ internals
    @staticmethod
    def _admit(
        pending: Deque[_JobState],
        admitted: list[_JobState],
        policy: ConcurrencyPolicy,
        now: float,
    ) -> None:
        """Move pending jobs into the in-flight set while the admission gate allows.

        Only jobs that have *arrived* (``submit_s <= now``) are considered, earliest
        deadline first (ties: submission order, which reproduces the old strict submission
        order for deadline-less batches).  A job held back by its tenant's
        ``tenant_admission_limit`` does not block later jobs from *other* tenants — they
        overtake it (no head-of-line blocking across tenants).  Jobs that finished since the
        last admission leave ``admitted`` here, and a job with no map tasks finishes on the
        spot (it never holds an admission token).
        """
        while pending:
            arrived = [state for state in pending if state.job.submit_s <= now]
            if not arrived:
                return
            admitted[:] = [state for state in admitted if state.in_flight()]
            if len(admitted) >= policy.max_concurrent_jobs:
                return
            chosen = None
            for state in sorted(arrived, key=lambda s: (s.deadline_key(), s.index)):
                if policy.tenant_admission_limit is not None:
                    tenant_inflight = sum(
                        1 for other in admitted if other.job.tenant == state.job.tenant
                    )
                    if tenant_inflight >= policy.tenant_admission_limit:
                        state.admission_blocked = True
                        continue
                chosen = state
                break
            if chosen is None:
                return
            pending.remove(chosen)
            chosen.admitted_s = now
            if not chosen.queue:
                chosen.max_finish_s = now
            admitted.append(chosen)
            chosen.job.counters.increment(Counters.TENANT_JOBS_ADMITTED)
            if chosen.admission_blocked:
                chosen.job.counters.increment(Counters.TENANT_ADMISSION_WAITS)

    @staticmethod
    def _tenant_limit(
        policy: ConcurrencyPolicy, allowance: Optional[dict[str, int]], tenant: str
    ) -> Optional[int]:
        """Cap on the tenant's simultaneously running attempts (``None``: uncapped).

        The limit is the static ``tenant_slot_quota`` unless preemption computed a tighter
        weighted ``allowance`` for the tenant — gating launches by the same entitlement the
        preemptor enforces keeps a just-preempted tenant from immediately relaunching.
        """
        if allowance is not None and tenant in allowance:
            return allowance[tenant]
        return policy.tenant_slot_quota

    @staticmethod
    def _eligible_jobs(
        admitted: list[_JobState],
        policy: ConcurrencyPolicy,
        by_tenant: dict[str, int],
        allowance: Optional[dict[str, int]],
    ) -> list[_JobState]:
        """Admitted jobs with queued tasks whose tenant is under its slot limit."""
        eligible: list[_JobState] = []
        for state in admitted:
            if not state.queue:
                continue
            tenant = state.job.tenant
            limit = JobTracker._tenant_limit(policy, allowance, tenant)
            if limit is not None and by_tenant.get(tenant, 0) >= limit:
                if not state.quota_deferred:
                    state.quota_deferred = True
                    state.job.counters.increment(Counters.TENANT_QUOTA_DEFERRALS)
                continue
            eligible.append(state)
        return eligible

    @staticmethod
    def _choose_job(
        eligible: list[_JobState],
        policy: ConcurrencyPolicy,
        by_tenant: dict[str, int],
    ) -> _JobState:
        """Pick the job the freed slot serves next (see :class:`ConcurrencyPolicy`).

        The fair key divides each tenant's running count by its weight (weight 1.0
        reproduces the unweighted order exactly) and breaks ties earliest-deadline-first
        before falling back to least-served job and submission order.
        """
        if len(eligible) == 1:
            return eligible[0]
        if policy.queue_policy == "fifo":
            return min(eligible, key=lambda state: state.index)
        return min(
            eligible,
            key=lambda state: (
                by_tenant.get(state.job.tenant, 0) / policy.weight(state.job.tenant),
                state.deadline_key(),
                state.launched,
                state.index,
            ),
        )

    def _launch(
        self,
        state: _JobState,
        queued: _QueuedTask,
        slot: _Slot,
        now: float,
        chaos: Optional[ConcurrentChaos],
        running: list[_Running],
        by_tenant: dict[str, int],
        speculative: bool,
    ) -> _Running:
        """Run one attempt on ``slot`` and register it for settlement.

        The functional execution happens here (durations are deterministic given the
        replica the reader picks), but the attempt's counters land in a private scratch bag
        and its output is published only when :meth:`_settle` accepts it.
        """
        start = max(now, queued.not_before_s)
        scratch = Counters()
        result = queued.task.run(self.hdfs, self.cost, slot.node_id, scratch)
        duration = self.cost.task_overhead() + result.compute_seconds
        if chaos is not None:
            duration *= chaos.slow_factor(slot.node_id)
        finish = start + duration
        slot.available_s = finish
        counters = state.job.counters
        counters.increment(Counters.LAUNCHED_MAP_TASKS)
        self._count_assignment(state.policy, counters, queued.task.split, slot.node_id)
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
        )
        if (
            not speculative
            and chaos is not None
            and chaos.dooms(state.index, queued.task.task_id, queued.attempt)
        ):
            attempt.doomed = True
        running.append(attempt)
        tenant = state.job.tenant
        by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
        state.active += 1
        state.launched += 1
        state.quota_deferred = False
        if state.first_launch_s is None:
            state.first_launch_s = start
            counters.increment(Counters.SCHED_QUEUE_WAIT_SECONDS, start - state.job.submit_s)
        return attempt

    @staticmethod
    def _retire(attempt: _Running, running: list[_Running], by_tenant: dict[str, int]) -> None:
        """Take one attempt out of the unsettled set — every settle/kill site ends here."""
        attempt.settled = True
        running.remove(attempt)
        attempt.state.active -= 1
        by_tenant[attempt.state.job.tenant] -= 1

    @staticmethod
    def _settle_until(
        deadline: float, running: list[_Running], by_tenant: dict[str, int]
    ) -> None:
        """Settle every unsettled attempt whose slot occupancy ends by ``deadline``."""
        due = [r for r in running if r.end_s <= deadline]
        if len(due) > 1:
            due.sort(
                key=lambda r: (
                    r.end_s,
                    r.state.index,
                    r.queued.task.task_id,
                    r.start_s,
                    r.speculative,
                )
            )
        for attempt in due:
            JobTracker._settle(attempt, running, by_tenant)

    @staticmethod
    def _settle(attempt: _Running, running: list[_Running], by_tenant: dict[str, int]) -> None:
        """Resolve one finished (or killed) attempt: accept, discard, or fail-and-requeue."""
        JobTracker._retire(attempt, running, by_tenant)
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

    def _strike_node(
        self,
        failure: FailureEvent,
        kill_time: float,
        slots: list[_Slot],
        running: list[_Running],
        by_tenant: dict[str, int],
    ) -> None:
        """Kill ``failure``'s node mid-phase: revoke its attempts, requeue after expiry.

        The node's slots leave the pool.  A revoked attempt whose speculative rival survives
        on an alive node is *not* requeued — the rival completes the task alone (resurrected
        first if it had already lost the race), which is exactly why speculation bounds tail
        latency under node loss.
        """
        if self.cluster.node(failure.node_id).is_alive:
            self.cluster.kill_node(failure.node_id)
        slots[:] = [slot for slot in slots if slot.node_id != failure.node_id]
        for attempt in [r for r in running if r.slot.node_id == failure.node_id]:
            self._retire(attempt, running, by_tenant)
            attempt.kill_s = kill_time
            state = attempt.state
            counters = state.job.counters
            rival = attempt.rival
            if rival is not None and not rival.settled and rival.slot.node_id != failure.node_id:
                if rival.kill_s is not None:
                    rival.kill_s = None
                    rival.slot.available_s = rival.finish_s
                counters.increment(Counters.SPEC_ATTEMPTS_DISCARDED)
                counters.increment(Counters.SPEC_WASTED_SECONDS, kill_time - attempt.start_s)
                continue
            counters.increment(Counters.RESCHEDULED_MAP_TASKS)
            state.rescheduled += 1
            state.queue.append(attempt.retry(kill_time + failure.expiry_interval_s))

    @staticmethod
    def _tenant_allowance(
        policy: ConcurrencyPolicy,
        admitted: list[_JobState],
        slots: list[_Slot],
    ) -> Optional[dict[str, int]]:
        """Weighted slot entitlement per tenant with in-flight work, or ``None``.

        ``None`` (preemption off, or no competition) means only the static quota applies.
        Entitlements shrink when a new tenant's job arrives or a node death shrinks the
        pool — which is precisely when preemption has revocation work to do.
        """
        if not policy.preemption:
            return None
        demand: dict[str, float] = {}
        for state in admitted:
            if state.in_flight():
                demand.setdefault(state.job.tenant, policy.weight(state.job.tenant))
        if len(demand) <= 1:
            return None
        total = sum(demand.values())
        allowance: dict[str, int] = {}
        for tenant, weight in demand.items():
            share = max(1, int(len(slots) * weight / total))
            if policy.tenant_slot_quota is not None:
                share = min(share, policy.tenant_slot_quota)
            allowance[tenant] = share
        return allowance

    @staticmethod
    def _preempt(
        policy: ConcurrencyPolicy,
        running: list[_Running],
        by_tenant: dict[str, int],
        now: float,
        allowance: Optional[dict[str, int]],
    ) -> None:
        """Revoke running attempts from tenants above their weighted entitlement.

        Victims are picked cheapest-first: speculative losers (already doomed to discard)
        before live attempts, newest launch first among those.  The surviving side of a
        race whose loser still runs is never preempted — killing it would only resurrect
        the loser, freeing nothing.  Each kill counts against the victim job's
        ``max_preemptions_per_job``.
        """
        if allowance is None:
            return
        for tenant in sorted(allowance):
            excess = by_tenant.get(tenant, 0) - allowance[tenant]
            if excess <= 0:
                continue
            victims = sorted(
                (r for r in running if r.state.job.tenant == tenant),
                key=lambda r: (
                    r.kill_s is None,
                    -r.start_s,
                    r.state.index,
                    r.queued.task.task_id,
                ),
            )
            for attempt in victims:
                if excess <= 0:
                    break
                if (
                    attempt.kill_s is None
                    and attempt.rival is not None
                    and not attempt.rival.settled
                ):
                    continue
                state = attempt.state
                if state.preemptions >= policy.max_preemptions_per_job:
                    continue
                was_loser = attempt.kill_s is not None
                state.preemptions += 1
                JobTracker._retire(attempt, running, by_tenant)
                attempt.kill_s = now
                attempt.slot.available_s = now
                counters = state.job.counters
                counters.increment(Counters.PREEMPT_ATTEMPTS_KILLED)
                counters.increment(Counters.PREEMPT_WASTED_SECONDS, now - attempt.start_s)
                if not was_loser:
                    state.queue.append(attempt.retry(now))
                excess -= 1

    def _speculate(
        self,
        slot: _Slot,
        now: float,
        policy: ConcurrencyPolicy,
        chaos: Optional[ConcurrentChaos],
        running: list[_Running],
        by_tenant: dict[str, int],
        allowance: Optional[dict[str, int]],
    ) -> bool:
        """Try to launch a backup attempt for the worst straggler on the idle ``slot``.

        Candidates are running, un-raced, un-killed regular attempts of jobs with at least
        one completed attempt, projected to run longer than :data:`SPECULATIVE_SLOWDOWN` times
        the job's completed-duration percentile, on a *different* node than ``slot``, and
        whose tenant has headroom under its slot limit.  Durations are deterministic at
        launch, so the race resolves eagerly: the loser is killed the instant the winner
        finishes (ties favour the original), and its slot frees at that moment.
        """
        best: Optional[_Running] = None
        best_key: Optional[tuple] = None
        for attempt in running:
            if attempt.speculative or attempt.rival is not None:
                continue
            if attempt.doomed or attempt.kill_s is not None:
                continue
            if attempt.finish_s <= now or attempt.slot.node_id == slot.node_id:
                continue
            state = attempt.state
            if not state.durations:
                continue
            typical = _percentile(state.durations, SPECULATIVE_PERCENTILE)
            if (attempt.finish_s - attempt.start_s) <= SPECULATIVE_SLOWDOWN * typical:
                continue
            tenant = state.job.tenant
            limit = self._tenant_limit(policy, allowance, tenant)
            if limit is not None and by_tenant.get(tenant, 0) >= limit:
                continue
            key = (-attempt.finish_s, state.index, attempt.queued.task.task_id)
            if best is None or key < best_key:
                best, best_key = attempt, key
        if best is None:
            return False
        backup = self._launch(
            best.state, best.retry(now), slot, now, chaos, running, by_tenant, speculative=True
        )
        best.state.job.counters.increment(Counters.SPEC_ATTEMPTS_LAUNCHED)
        backup.rival = best
        best.rival = backup
        loser = backup if backup.finish_s >= best.finish_s else best
        winner = best if loser is backup else backup
        loser.kill_s = winner.finish_s
        loser.slot.available_s = winner.finish_s
        return True

    @staticmethod
    def _outcomes(
        states: list[_JobState], alive_slots: int, failure_node: Optional[int]
    ) -> list[ConcurrentJobOutcome]:
        """Wrap per-job results, flagging interleaving and settling deadlines."""
        outcomes: list[ConcurrentJobOutcome] = []
        for state in states:
            window_open = state.first_launch_s
            interleaved = window_open is not None and any(
                other is not state
                and other.first_launch_s is not None
                and other.first_launch_s < state.max_finish_s
                and window_open < other.max_finish_s
                for other in states
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
                        num_slots=alive_slots,
                        rescheduled=state.rescheduled,
                        failure_node=failure_node,
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

    @staticmethod
    def _next_slot(slots: list[_Slot]) -> _Slot:
        """The alive slot that frees up first (ties: pool order)."""
        return min(slots, key=lambda slot: slot.available_s)

    @staticmethod
    def _pick_task(
        queue: Deque[_QueuedTask], slot: _Slot, policy: Optional[SchedulingPolicy] = None
    ) -> _QueuedTask:
        """Prefer a task whose split is local to the slot's node (data-locality scheduling).

        Under an index-aware :class:`SchedulingPolicy` the search is three-tiered: first a
        task with an *indexed* replica on the slot's node, then a plain data-local task, then
        the queue head (a remote assignment).  Both passes share the same bounded search
        window stock Hadoop's locality search uses.
        """
        if policy is not None and policy.index_aware:
            for position, queued in enumerate(queue):
                if position >= _LOCALITY_SEARCH_WINDOW:
                    break
                if slot.node_id in queued.task.split.index_locations:
                    del queue[position]
                    return queued
        for position, queued in enumerate(queue):
            if position >= _LOCALITY_SEARCH_WINDOW:
                break
            if slot.node_id in queued.task.split.locations:
                del queue[position]
                return queued
        return queue.popleft()

    @staticmethod
    def _count_assignment(
        policy: Optional[SchedulingPolicy], counters: Counters, split, node_id: int
    ) -> None:
        """Classify one launch into the scheduling-tier counters (policy-gated).

        Only recorded when a :class:`SchedulingPolicy` is installed, so stock jobs (and the
        pinned Figure 6/7 golden runs) observe no new counters.  Classification looks at the
        *achieved* placement, not at how the task was picked: a task that reached its indexed
        node via the plain-locality pass still counts as ``SCHED_INDEX_LOCAL``.
        """
        if policy is None:
            return
        if node_id in split.index_locations:
            counters.increment(Counters.SCHED_INDEX_LOCAL)
        elif node_id in split.locations:
            counters.increment(Counters.SCHED_PLAIN_LOCAL)
        else:
            counters.increment(Counters.SCHED_REMOTE)
