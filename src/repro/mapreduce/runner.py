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
from repro.engine.planner import QueryPlan
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Emitted, JobConf, JobResult, concatenated
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

    def __init__(self, hdfs: Hdfs, cost: CostModel) -> None:
        self.hdfs = hdfs
        self.cost = cost
        self.job_client = JobClient(hdfs, cost)
        self.job_tracker = JobTracker(hdfs.cluster, hdfs, cost)

    def run(self, jobconf: JobConf, failure: Optional[FailureEvent] = None) -> JobResult:
        """Execute ``jobconf``; optionally inject a node failure at a job-progress fraction.

        With a failure event the map phase is simulated twice: once undisturbed to learn the
        baseline makespan (which converts the progress fraction into an absolute kill time), and
        once with the node dying at that time.  The cluster is restored afterwards.
        """
        if failure is None:
            return self._run_once(jobconf, failure=None, kill_time_s=None)

        # The undisturbed probe must not publish side effects (its attempts are discarded),
        # so only the measured run below finishes its input format's run — and there only
        # with the attempts that survived the failure, while the dead node is still dead.
        baseline = self._run_once(jobconf, failure=None, kill_time_s=None, measured=False)
        kill_time = failure.at_progress * baseline.map_phase_s
        try:
            return self._run_once(jobconf, failure=failure, kill_time_s=kill_time)
        finally:
            self.hdfs.cluster.node(failure.node_id).revive()

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
        behind other in-flight work.  Reduce phases and the input formats'
        :meth:`~repro.mapreduce.input_format.InputFormat.finish_run` (HAIL's adaptive
        commits and lifecycle passes) run in map-completion order, so a shared
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
                node = self.hdfs.cluster.node(chaos.node_failure.node_id)
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
                    measured=True,
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
        self, jobconf: JobConf, tenant: str = "default", measured: bool = True
    ) -> tuple[SplitPlan, ConcurrentJob]:
        """Split phase of one job: its split plan plus the map tasks as a ``ConcurrentJob``.

        Every job — serial or batched — enters the JobTracker's scheduling loop in this
        shape, with a fresh counter bag of its own.  The input format's run starts here.
        """
        plan = self.job_client.compute_splits(jobconf)
        jobconf.input_format.start_run(measured)
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
        measured: bool = True,
    ) -> JobResult:
        """One single-job map phase (optionally with the node kill) and its completion."""
        plan, job = self._prepare_job(jobconf, measured=measured)
        outcome = self.job_tracker.run_map_phase(
            job.tasks, job.counters, failure=failure, kill_time_s=kill_time_s
        )
        return self._complete_job(jobconf, plan, job.tasks, outcome, job.counters, measured)

    def _complete_job(
        self,
        jobconf: JobConf,
        plan: SplitPlan,
        tasks: list[MapTask],
        outcome: ScheduleOutcome,
        counters: Counters,
        measured: bool,
        tenant: Optional[str] = None,
        deadline_met: Optional[bool] = None,
    ) -> JobResult:
        """Everything after the map phase: reduce, the format's finish, timing decomposition
        and the executed plan.

        Shared by :meth:`run` and :meth:`run_concurrent`; for batched jobs
        ``outcome.makespan_s`` is absolute on the batch timeline, so the returned
        ``runtime_s`` is the job's latency including queueing.
        """
        # Map-side combine: each attempt is one map task, so combining per attempt is exactly
        # Hadoop's combiner scope — partials never cross task boundaries.  Every stage hands
        # on a key column and a value column; a map-only scan's rows keep no key column.
        parts = []
        for attempt in outcome.scheduled:
            task = attempt.result
            parts.append(combine_map_output(task.keys, task.values, jobconf, self.cost, counters))
        keys, values = concatenated(parts)
        reduce_s = 0.0
        if jobconf.reducer is not None:
            map_output = Emitted(keys, values)
            phase = run_reduce_phase(map_output, jobconf, self.hdfs.cluster, self.cost, counters)
            keys, values, reduce_s = phase.keys, phase.values, phase.duration_s

        if measured:
            jobconf.input_format.finish_run(self.hdfs, self.cost, outcome, counters, tenant)
        rr_times = [attempt.result.record_reader_s for attempt in outcome.scheduled]
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
            + reduce_s
        )

        return JobResult(
            job_name=jobconf.name,
            keys=keys,
            values=values,
            runtime_s=runtime,
            ideal_time_s=ideal,
            num_map_tasks=num_tasks,
            num_waves=num_waves,
            avg_record_reader_s=avg_rr,
            max_record_reader_s=max_rr,
            total_record_reader_s=sum(rr_times),
            map_phase_s=outcome.makespan_s,
            reduce_phase_s=reduce_s,
            split_phase_s=plan.split_phase_s,
            counters=counters,
            task_results=outcome.scheduled,
            failure_node=outcome.failure_node,
            rescheduled_tasks=outcome.rescheduled,
            deadline_met=deadline_met,
            plan=_executed_plan(jobconf.input_format.plan, outcome),
        )


def _executed_plan(plan: Optional[QueryPlan], outcome: ScheduleOutcome) -> Optional[QueryPlan]:
    """The split phase's ``plan`` framing the block plans the accepted attempts executed, in
    block order (``None`` when the job's input format keeps no plan)."""
    if plan is None:
        return None
    executed = {
        block.block_id: block
        for attempt in outcome.scheduled
        for block in attempt.result.block_plans
    }
    return QueryPlan(plan.path, plan.bound, [executed[block_id] for block_id in sorted(executed)])
