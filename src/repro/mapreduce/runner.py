"""End-to-end MapReduce job execution.

:class:`MapReduceRunner` ties together the JobClient (split phase), the JobTracker (map phase
scheduling) and the shuffle/reduce phase, and produces a :class:`~repro.mapreduce.job.JobResult`
with both the functional output and the paper's timing decomposition:

- ``runtime_s``       — end-to-end job runtime (Figures 6(a), 7(a), 9),
- ``avg_record_reader_s`` — average RecordReader time per map task (Figures 6(b), 7(b)),
- ``ideal_time_s``    — ``#MapTasks / #ParallelMapTasks * Avg(T_RecordReader)``, the paper's
  estimate of the useful work (Section 6.4.1); ``#ParallelMapTasks`` is the number of map
  slots still *alive* at the end of the phase, so a run that lost a node divides by the
  surviving parallelism, not the configured one,
- ``overhead_s``      — ``runtime - ideal``, the framework overhead (Figures 6(c), 7(c)).

:meth:`MapReduceRunner.run` executes one job; :meth:`MapReduceRunner.run_concurrent` executes a
*batch* of jobs whose map phases share the JobTracker's slot pool (see
:class:`~repro.mapreduce.job_tracker.ConcurrencyPolicy`).  Both prepare jobs the same way
(splits → map tasks → a :class:`~repro.mapreduce.job_tracker.ConcurrentJob`), schedule them
through the JobTracker's one map-phase loop, and finish them in :meth:`_complete_job` — a
serial run is the single-job case.  In a batch each job still yields its own
:class:`JobResult`, whose ``runtime_s`` is then an end-to-end *latency* on the shared timeline
— it includes time spent queued behind other tenants.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.failure import ConcurrentChaos, FailureEvent
from repro.cluster.topology import Cluster
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import PRUNED_BLOCKS_PROPERTY, JobConf, JobResult
from repro.mapreduce.job_client import JobClient, SplitPlan
from repro.mapreduce.job_tracker import (
    ConcurrencyPolicy,
    ConcurrentJob,
    JobTracker,
    ScheduleOutcome,
)
from repro.mapreduce.shuffle import combine_map_output, run_reduce_phase
from repro.mapreduce.task import MapTask


class ConcurrentBatchError(RuntimeError):
    """A concurrent batch died partway through its post-map completions.

    Every job that fully completed before the failure was already reported through
    ``run_concurrent``'s ``on_result`` callback; ``failed_index`` is the job (position in
    the submitted ``jobconfs`` list) whose completion raised ``cause``.
    """

    def __init__(self, failed_index: int, cause: BaseException) -> None:
        super().__init__(
            f"concurrent batch failed completing job {failed_index}: {cause}"
        )
        self.failed_index = failed_index
        self.cause = cause


class MapReduceRunner:
    """Runs MapReduce jobs against a simulated HDFS deployment."""

    def __init__(self, hdfs: Hdfs, cost: CostModel, cluster: Optional[Cluster] = None) -> None:
        self.hdfs = hdfs
        self.cost = cost
        self.cluster = cluster if cluster is not None else hdfs.cluster
        self.job_client = JobClient(hdfs, cost)
        self.job_tracker = JobTracker(self.cluster, hdfs, cost)

    def run(self, jobconf: JobConf, failure: Optional[FailureEvent] = None) -> JobResult:
        """Execute ``jobconf``; optionally inject a node failure at a job-progress fraction.

        With a failure event the map phase is simulated twice: once undisturbed to learn the
        baseline makespan (which converts the progress fraction into an absolute kill time), and
        once with the node dying at that time.  The cluster is restored afterwards.
        """
        if failure is None:
            return self._run_once(jobconf, failure=None, kill_time_s=None)

        # The undisturbed probe must not publish side effects (its attempts are discarded),
        # so adaptive index builds are only committed by the measured run below — and there
        # only for attempts that survived the failure, while the dead node is still dead.
        baseline = self._run_once(
            jobconf, failure=None, kill_time_s=None, commit_adaptive=False
        )
        kill_time = failure.at_progress * baseline.map_phase_s
        try:
            return self._run_once(jobconf, failure=failure, kill_time_s=kill_time)
        finally:
            self.cluster.node(failure.node_id).revive()

    def run_concurrent(
        self,
        jobconfs: list[JobConf],
        tenants: Optional[list[str]] = None,
        policy: Optional[ConcurrencyPolicy] = None,
        chaos: Optional[ConcurrentChaos] = None,
        deadlines: Optional[list[Optional[float]]] = None,
        on_result: Optional[Callable[[int, JobResult], None]] = None,
    ) -> list[JobResult]:
        """Execute a batch of jobs with interleaved map phases over shared slots.

        ``tenants`` labels each job for admission control, quotas and fair queueing
        (defaults to a single ``"default"`` tenant) and ``deadlines`` attaches per-job
        soft deadlines (EDF tie-breaks + ``DEADLINE_*`` accounting).  ``chaos``
        injects faults into the interleaved phase — a node death (the node is revived
        before returning, as :meth:`run` does after its node kill), task-attempt failures,
        and straggler slow-downs; see :class:`~repro.cluster.failure.ConcurrentChaos`.

        Results align with ``jobconfs``; each ``JobResult.runtime_s`` is the job's
        end-to-end latency on the shared batch timeline — client-side startup and split
        phases overlap across jobs, but the map makespan is absolute and includes queueing
        behind other in-flight work.  Reduce phases, adaptive commits and lifecycle passes
        run in map-completion order, so a shared
        :class:`~repro.engine.lifecycle.AdaptiveTuner` observes jobs in the same causal
        order the timeline produced.  ``on_result(index, result)`` is called the moment
        each job completes, so if a later completion dies partway (e.g. an armed
        ``mid_concurrent_batch`` crash point) the caller already holds every finished job
        when the :class:`ConcurrentBatchError` arrives.
        """
        if tenants is None:
            tenants = ["default"] * len(jobconfs)
        for name, values in (("tenants", tenants), ("deadlines", deadlines)):
            if values is not None and len(values) != len(jobconfs):
                raise ValueError(f"{name} must align one-to-one with jobconfs")
        jobs: list[ConcurrentJob] = []
        plans = []
        for i, (jobconf, tenant) in enumerate(zip(jobconfs, tenants)):
            plan, job = self._prepare_job(jobconf, tenant=tenant)
            if deadlines is not None:
                job.deadline_s = deadlines[i]
            jobs.append(job)
            plans.append(plan)
        try:
            outcomes = self.job_tracker.run_concurrent_map_phases(jobs, policy, chaos=chaos)
        finally:
            if chaos is not None and chaos.node_failure is not None:
                node = self.cluster.node(chaos.node_failure.node_id)
                if not node.is_alive:
                    node.revive()
        completion_order = sorted(
            range(len(jobs)), key=lambda i: (outcomes[i].finish_s, i)
        )
        results: list[Optional[JobResult]] = [None] * len(jobs)
        persist = self.hdfs.persist
        for i in completion_order:
            try:
                if persist is not None and i != completion_order[0]:
                    # A named crash site *between* job completions: everything already
                    # reported is journaled, the rest of the batch dies with the process.
                    persist.barrier("mid_concurrent_batch")
                results[i] = self._complete_job(
                    jobconfs[i],
                    plans[i],
                    jobs[i].tasks,
                    outcomes[i].outcome,
                    jobs[i].counters,
                    commit_adaptive=True,
                    tenant=tenants[i],
                    deadline_met=outcomes[i].deadline_met,
                )
            except Exception as exc:
                raise ConcurrentBatchError(failed_index=i, cause=exc) from exc
            if on_result is not None:
                on_result(i, results[i])
        return results

    # ------------------------------------------------------------------ internals
    def _prepare_job(
        self, jobconf: JobConf, tenant: str = "default", record_usage: bool = True
    ) -> tuple[SplitPlan, ConcurrentJob]:
        """Split phase of one job: its split plan plus the map tasks as a ``ConcurrentJob``.

        Every job — serial or batched — enters the JobTracker's scheduling loop in this
        shape, with a fresh counter bag of its own.
        """
        self._set_usage_recording(jobconf, record=record_usage)
        plan = self.job_client.compute_splits(jobconf)
        tasks = [
            MapTask(task_id=i, split=split, jobconf=jobconf)
            for i, split in enumerate(plan.splits)
        ]
        return plan, ConcurrentJob(tasks=tasks, counters=Counters(), tenant=tenant)

    def _run_once(
        self,
        jobconf: JobConf,
        failure: Optional[FailureEvent],
        kill_time_s: Optional[float],
        commit_adaptive: bool = True,
    ) -> JobResult:
        """One single-job map phase (optionally with the node kill) and its completion."""
        plan, job = self._prepare_job(jobconf, record_usage=commit_adaptive)
        outcome = self.job_tracker.run_map_phase(
            job.tasks, job.counters, failure=failure, kill_time_s=kill_time_s
        )
        return self._complete_job(
            jobconf, plan, job.tasks, outcome, job.counters, commit_adaptive=commit_adaptive
        )

    def _complete_job(
        self,
        jobconf: JobConf,
        plan,
        tasks: list[MapTask],
        outcome: ScheduleOutcome,
        counters: Counters,
        commit_adaptive: bool,
        tenant: Optional[str] = None,
        deadline_met: Optional[bool] = None,
    ) -> JobResult:
        """Everything after the map phase: commits, reduce, lifecycle, timing decomposition.

        Shared by :meth:`run` and :meth:`run_concurrent`; for batched jobs
        ``outcome.makespan_s`` is absolute on the batch timeline, so the returned
        ``runtime_s`` is the job's latency including queueing.
        """
        if commit_adaptive:
            self._commit_adaptive_builds(outcome, counters)

        self._count_pruned_splits(jobconf, counters)

        map_output: list[tuple] = []
        for attempt in outcome.scheduled:
            # Map-side combine: each attempt is one map task, so combining per attempt is
            # exactly Hadoop's combiner scope — partials never cross task boundaries.
            map_output.extend(
                combine_map_output(attempt.result.output, jobconf, self.cost, counters)
            )

        reduce_result = run_reduce_phase(map_output, jobconf, self.cluster, self.cost, counters)
        output = reduce_result.output if jobconf.reducer is not None else map_output

        rr_times = [attempt.result.record_reader_s for attempt in outcome.scheduled]
        if commit_adaptive:
            # "Useful work" for the budget tuner: the surviving attempts' RecordReader time
            # minus every build those same attempts staged (not just the committed subset —
            # builds dropped at commit time still spent their seconds inside rr_times).
            staged_build_s = sum(
                build.build_seconds
                for attempt in outcome.scheduled
                for build in attempt.result.adaptive_builds
            )
            self._run_adaptive_lifecycle(jobconf, counters, sum(rr_times) - staged_build_s, tenant)
        avg_rr = sum(rr_times) / len(rr_times) if rr_times else 0.0
        max_rr = max(rr_times) if rr_times else 0.0
        num_slots = max(1, outcome.num_slots)
        num_tasks = len(tasks)
        ideal = (num_tasks / num_slots) * avg_rr
        num_waves = -(-num_tasks // num_slots) if num_tasks else 0

        runtime = (
            self.cost.job_startup()
            + plan.split_phase_s
            + outcome.makespan_s
            + reduce_result.duration_s
        )

        return JobResult(
            job_name=jobconf.name,
            output=output,
            runtime_s=runtime,
            ideal_time_s=ideal,
            num_map_tasks=num_tasks,
            num_waves=num_waves,
            avg_record_reader_s=avg_rr,
            max_record_reader_s=max_rr,
            total_record_reader_s=sum(rr_times),
            map_phase_s=outcome.makespan_s,
            reduce_phase_s=reduce_result.duration_s,
            split_phase_s=plan.split_phase_s,
            counters=counters,
            task_results=outcome.scheduled,
            failure_node=outcome.failure_node,
            rescheduled_tasks=outcome.rescheduled,
            deadline_met=deadline_met,
        )

    @staticmethod
    def _count_pruned_splits(jobconf: JobConf, counters: Counters) -> None:
        """Fold the split phase's zone-pruning report (if any) into the job's counters.

        Zone-aware split pruning happens inside the input format, before any map task
        exists; the format stashes what it dropped under ``PRUNED_BLOCKS_PROPERTY`` and this
        pops it (so a re-run of the same ``JobConf`` cannot double-count) into the same
        ``ZONE_MAP_*`` counters the executor's per-block skips use.
        """
        report = jobconf.properties.pop(PRUNED_BLOCKS_PROPERTY, None)
        if not report:
            return
        counters.increment(Counters.ZONE_MAP_SKIPPED_BLOCKS, report.get("blocks", 0))
        counters.increment(Counters.ZONE_MAP_PRUNED_BYTES, report.get("bytes", 0))

    def _commit_adaptive_builds(self, outcome: ScheduleOutcome, counters: Counters) -> None:
        """Register adaptive index builds staged by the *surviving* map-task attempts.

        Runs while a killed node is still dead (the failure runner revives it only after the
        measured run returns), so builds targeting the dead node are dropped — ``Dir_rep``
        never ends up half-registered.  Deduplication of rescheduled/speculative attempts
        happens inside :func:`repro.engine.adaptive.commit_adaptive_builds`.
        """
        if not any(attempt.result.adaptive_builds for attempt in outcome.scheduled):
            return
        from repro.engine.adaptive import commit_adaptive_builds

        for build in commit_adaptive_builds(self.hdfs, outcome.scheduled).committed:
            # Sliced per attribute: what the split tuner ledgers steer the offer rates by.
            counters.increment(Counters.ADAPTIVE_INDEXES_COMMITTED, attribute=build.attribute)
            counters.increment(
                Counters.ADAPTIVE_BUILD_SECONDS, build.build_seconds, build.attribute
            )

    @staticmethod
    def _set_usage_recording(jobconf: JobConf, record: bool) -> None:
        """Silence the planner's index-usage bookkeeping for the baseline probe.

        The failure runner's undisturbed probe must not publish side effects; its plans would
        otherwise touch the namenode's LRU statistics a second time per use (and for replicas
        the measured run, with the node dead, never opens), skewing the eviction order.
        """
        from repro.engine.adaptive import ADAPTIVE_PROPERTY

        context = jobconf.properties.get(ADAPTIVE_PROPERTY)
        if context is not None:
            context.record_usage = record

    def _run_adaptive_lifecycle(
        self,
        jobconf: JobConf,
        counters: Counters,
        useful_rr_s: float,
        tenant: Optional[str] = None,
    ) -> None:
        """Post-job lifecycle pass: tune the knobs, evict under disk pressure, rebalance.

        Runs only for measured runs (never for the failure runner's baseline probe, which must
        not publish side effects) and only when the deployment installed an
        ``AdaptiveLifecycleManager`` into the job's properties — stock jobs skip this entirely.
        The manager's :meth:`~repro.engine.lifecycle.AdaptiveLifecycleManager.after_job`
        observes the job from ``counters`` and writes its evictions, rebuilds and migrations
        back into them.  Concurrent jobs tag the pass with the submitting ``tenant``, so a
        shared tuner's report history shows which tenants drove convergence.
        """
        from repro.engine.lifecycle import LIFECYCLE_PROPERTY

        manager = jobconf.properties.get(LIFECYCLE_PROPERTY)
        if manager is not None:
            manager.after_job(self.hdfs, counters, useful_rr_s, tenant, self.cost)
