"""Multi-tenant saturation: throughput and latency percentiles vs. concurrency level.

The paper evaluates HAIL one job at a time; a shared deployment is never idle like that.  This
experiment queues a few hundred mixed-tenant queries against **one** HAIL deployment and sweeps
``HailConfig.concurrency.max_concurrent_jobs`` — the only knob that differs between sweep
points — to measure what the concurrent JobTracker scheduler buys under saturation:

- **throughput** (queries per simulated second): completed jobs over the batch makespan.
  Serial execution pays one full map phase after another; interleaving fills the slots a
  narrow job leaves idle with the next tenant's work.
- **latency percentiles** (p50/p99 simulated seconds): each query's latency is measured on
  the shared batch timeline, *including* time spent queued behind other in-flight work.  At
  level 1 that is the classic pipeline latency (the k-th query waits for the k-1 before it);
  at higher levels ``JobResult.runtime_s`` already is the absolute finish time of the job's
  pipeline on the shared clock.
- **fidelity**: every sweep point must return bit-identical per-query results to the serial
  baseline — interleaving may never change answers — and at levels above 1 both tenants'
  jobs must genuinely interleave (strict window overlap, counted by the
  ``SCHED_QUEUE_JOBS_INTERLEAVED`` counter), or the "concurrency" would be serial execution
  wearing a new API.

Two tenants (:data:`TENANTS`) attach to the deployment via :meth:`~repro.api.Session.attach`
and submit interleaved backlogs drained by :func:`~repro.api.run_multi_tenant_batch`, so the
sweep exercises the whole concurrent service layer — admission, per-tenant accounting, shared
adaptive tuner — not just the scheduler in isolation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.api import Session, col, run_multi_tenant_batch
from repro.cluster.failure import ConcurrentChaos, FailureEvent
from repro.datagen.synthetic import VALUE_RANGE, SyntheticGenerator
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.hail.config import HailConfig
from repro.mapreduce.counters import Counters

#: Columns of the saturation curve (one row per concurrency level).
_SATURATION_COLUMNS = [
    "max_concurrent_jobs",
    "jobs",
    "makespan_s",
    "throughput_qps",
    "latency_p50_s",
    "latency_p99_s",
    "speedup_vs_serial",
    "interleaved_jobs",
    "tenants_interleaved",
    "quota_deferrals",
    "admission_waits",
    "results_identical",
]

#: Columns of the chaos curve (one row per fault scenario).
_CHAOS_COLUMNS = [
    "scenario",
    "jobs",
    "makespan_s",
    "latency_p99_s",
    "spec_launched",
    "spec_won",
    "spec_discarded",
    "preempt_kills",
    "rescheduled",
    "peak_running_per_tenant",
    "slot_quota",
    "quota_respected",
    "results_identical",
]

#: The tenants sharing the deployment; two is the minimum that makes "multi-tenant" honest.
TENANTS = ("alice", "bob")

#: The attributes the mixed workload filters on — one indexed replica each at replication 3.
SATURATION_ATTRIBUTES = ("f1", "f2", "f3")

#: Where the simulated dataset lives in every deployment of the sweep.
_PATH = "/data/saturation"


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _deploy(
    config: ExperimentConfig,
    level: int,
    records,
    schema,
    hail_config: Optional[HailConfig] = None,
) -> list[Session]:
    """One fresh deployment per sweep point, with every tenant session attached to it."""
    if hail_config is None:
        hail_config = HailConfig.for_attributes(
            SATURATION_ATTRIBUTES, functional_partition_size=1
        ).with_concurrency(max_jobs=level)
    first = Session.deploy(
        nodes=config.nodes, hail_config=hail_config, tenant=TENANTS[0]
    )
    first.upload(_PATH, records, schema, rows_per_block=config.rows_per_block)
    return [first] + [first.attach(tenant) for tenant in TENANTS[1:]]


def _submit_backlog(sessions: Sequence[Session], num_queries: int) -> None:
    """Queue ``num_queries`` mixed filters, spread round-robin across the tenants.

    Queries cycle through the indexed attributes with varying (deterministic) range bounds,
    so consecutive jobs differ in selectivity and map-phase width — the non-uniformity that
    gives an interleaving scheduler slack to exploit.
    """
    for i in range(num_queries):
        session = sessions[i % len(sessions)]
        attribute = SATURATION_ATTRIBUTES[i % len(SATURATION_ATTRIBUTES)]
        # Selectivity sweeps 5%..25% as i advances; lo shifts so ranges are distinct.
        width = int(VALUE_RANGE * (0.05 + 0.02 * (i % 11)))
        lo = (i * 997) % (VALUE_RANGE - width)
        dataset = (
            session.dataset(_PATH)
            .where(col(attribute).between(lo, lo + width))
            .named(f"sat-{i}-{attribute}")
        )
        dataset.submit()


def _drain(sessions: Sequence[Session], chaos: Optional[ConcurrentChaos] = None) -> list:
    """Drain every tenant's backlog as one shared concurrent batch; results in global order.

    The returned list is in the round-robin submission order (tenant A's first, tenant B's
    first, A's second, ...) — the same global order for every sweep point, so per-index
    result comparison against the serial baseline is meaningful.  ``chaos`` injects faults
    into the shared batch (the chaos curve's lever).
    """
    per_tenant = run_multi_tenant_batch(sessions, chaos=chaos)
    merged = []
    batches = [list(per_tenant[session.tenant]) for session in sessions]
    for rank in range(max(len(batch) for batch in batches)):
        for batch in batches:
            if rank < len(batch):
                merged.append(batch[rank])
    return merged


def saturation_curve(
    config: Optional[ExperimentConfig] = None,
    num_queries: int = 36,
    levels: Sequence[int] = (1, 2, 4, 8),
) -> FigureResult:
    """Throughput and latency percentiles of a saturated mixed-tenant backlog per level.

    ``levels`` must start with 1: the serial sweep point is both the latency baseline and
    the reference answer set every concurrent point is checked against, bit for bit.
    """
    config = config or ExperimentConfig.small()
    levels = list(levels)
    if not levels or levels[0] != 1:
        raise ValueError(f"levels must start with the serial baseline 1, got {levels}")
    generator = SyntheticGenerator(seed=config.seed)
    records = generator.generate(config.num_records)
    schema = generator.schema

    result = FigureResult(
        figure="Saturation curve",
        description=(
            f"{num_queries} mixed queries from {len(TENANTS)} tenants on one shared "
            f"{config.nodes}-node HAIL deployment; max_concurrent_jobs swept over {levels}"
        ),
        columns=list(_SATURATION_COLUMNS),
    )

    baseline_records: Optional[list[list[tuple]]] = None
    baseline_makespan = 0.0

    for level in levels:
        sessions = _deploy(config, level, records, schema)
        _submit_backlog(sessions, num_queries)
        results = _drain(sessions)

        if level == 1:
            # Serial latency of the k-th query = everything executed before it, plus itself.
            latencies, elapsed = [], 0.0
            for query_result in results:
                elapsed += query_result.runtime_s
                latencies.append(elapsed)
            makespan = elapsed
        else:
            # Concurrent runtimes are absolute finish times on the shared batch timeline.
            latencies = [query_result.runtime_s for query_result in results]
            makespan = max(latencies)

        answer = [query_result.sorted_records() for query_result in results]
        if baseline_records is None:
            baseline_records = answer
            baseline_makespan = makespan
        identical = answer == baseline_records

        interleaved = sum(
            int(r.job.counters.value(Counters.SCHED_QUEUE_JOBS_INTERLEAVED))
            for r in results
        )
        stats = [session.stats() for session in sessions]
        tenants_interleaved = sum(
            1 for s in stats if s.counter(Counters.SCHED_QUEUE_JOBS_INTERLEAVED) > 0
        )
        result.add_row(
            max_concurrent_jobs=level,
            jobs=len(results),
            makespan_s=makespan,
            throughput_qps=len(results) / makespan if makespan > 0 else 0.0,
            latency_p50_s=_percentile(latencies, 0.50),
            latency_p99_s=_percentile(latencies, 0.99),
            speedup_vs_serial=baseline_makespan / makespan if makespan > 0 else 0.0,
            interleaved_jobs=interleaved,
            tenants_interleaved=tenants_interleaved,
            quota_deferrals=sum(
                s.counter(Counters.TENANT_QUOTA_DEFERRALS) for s in stats
            ),
            admission_waits=sum(
                s.counter(Counters.TENANT_ADMISSION_WAITS) for s in stats
            ),
            results_identical=identical,
        )

    result.notes = (
        "latency includes queueing on the shared timeline (serial = prefix sums of "
        "runtimes); results_identical pins every sweep point to the serial baseline's "
        "answers; tenants_interleaved counts tenants whose jobs strictly overlapped "
        "another in-flight job's window."
    )
    return result


# ------------------------------------------------------------------------------ chaos curve
#: The node the straggler scenarios slow down and the factor they slow it by.
_STRAGGLER_NODE = 2
_STRAGGLER_FACTOR = 16.0

#: The node the ``node_death`` scenario kills, and how long its heartbeat takes to expire.
_CHAOS_DEATH_NODE = 1
_CHAOS_EXPIRY_S = 5.0

#: Fraction of the failure-free makespan at which the node-death scenario strikes.
_CHAOS_KILL_FRACTION = 0.4

#: Per-tenant running-attempt cap every chaos scenario runs under (of 8 total slots).
_CHAOS_QUOTA = 6


def _peak_overlap(results) -> int:
    """Peak number of simultaneously running accepted attempts across ``results``.

    Sweep-line over the accepted attempts' ``[start_s, finish_s)`` windows; closing an
    interval sorts before opening one at the same instant so back-to-back attempts on the
    same slot do not double-count.  Launch gating bounds the *full* per-tenant peak
    (killed attempts included) by the same quota, so the accepted-attempt peak is a sound
    audit of the quota invariant.
    """
    events = []
    for query_result in results:
        for attempt in query_result.job.task_results:
            events.append((attempt.start_s, 1))
            events.append((attempt.finish_s, -1))
    peak = current = 0
    for _, delta in sorted(events, key=lambda event: (event[0], event[1])):
        current += delta
        peak = max(peak, current)
    return peak


def _chaos_scenario(
    config: ExperimentConfig,
    records,
    schema,
    hail_config: HailConfig,
    num_queries: int,
    chaos: Optional[ConcurrentChaos] = None,
) -> list:
    """Deploy fresh, queue the standard backlog, drain it under ``chaos``."""
    sessions = _deploy(config, 0, records, schema, hail_config=hail_config)
    _submit_backlog(sessions, num_queries)
    return _drain(sessions, chaos=chaos)


def chaos_curve(
    config: Optional[ExperimentConfig] = None,
    num_queries: int = 16,
) -> FigureResult:
    """Concurrent-batch behaviour under injected faults, one row per scenario.

    Five scenarios on the same two-tenant backlog, each on a fresh deployment:

    - ``failure_free``: the reference answers, latencies, and makespan.
    - ``straggler``: node :data:`_STRAGGLER_NODE` runs every attempt
      :data:`_STRAGGLER_FACTOR`× slower; speculation off, so the tail attempt dominates.
    - ``straggler_speculation``: same straggler, speculation on — backup attempts on idle
      fast slots must beat the tail (the benchmark test pins the makespan ratio at >= 1.3).
    - ``node_death``: node :data:`_CHAOS_DEATH_NODE` dies mid-batch (at
      :data:`_CHAOS_KILL_FRACTION` of the failure-free makespan); lost attempts reschedule
      on surviving replicas, and p99 latency must stay within 2x failure-free.
    - ``preemption``: no faults, but uneven tenant weights plus preemption on — a tenant
      that expanded into idle slots is cut back to its entitlement when the other tenant's
      demand returns, and every tenant's peak stays within the slot quota.

    Every scenario must return bit-identical per-query answers to ``failure_free``:
    stragglers, kills, backups and reschedules move work on the *timeline*, never across
    access paths, so answers are invariant by construction — this row pins it.
    """
    config = config or ExperimentConfig.small()
    if num_queries % len(TENANTS) != 0:
        raise ValueError(
            f"num_queries must divide evenly across {len(TENANTS)} tenants, got {num_queries}"
        )
    generator = SyntheticGenerator(seed=config.seed)
    records = generator.generate(config.num_records)
    schema = generator.schema

    base = HailConfig.for_attributes(
        SATURATION_ATTRIBUTES, functional_partition_size=1
    ).with_concurrency(max_jobs=4, tenant_slot_quota=_CHAOS_QUOTA)
    straggler = ConcurrentChaos(slow_nodes={_STRAGGLER_NODE: _STRAGGLER_FACTOR})

    result = FigureResult(
        figure="Chaos curve",
        description=(
            f"{num_queries} mixed queries from {len(TENANTS)} tenants on one shared "
            f"{config.nodes}-node HAIL deployment under injected faults"
        ),
        columns=list(_CHAOS_COLUMNS),
    )

    baseline_records: Optional[list[list[tuple]]] = None

    def run(name: str, hail_config: HailConfig, chaos: Optional[ConcurrentChaos]) -> dict:
        nonlocal baseline_records
        results = _chaos_scenario(config, records, schema, hail_config, num_queries, chaos)
        answer = [query_result.sorted_records() for query_result in results]
        if baseline_records is None:
            baseline_records = answer
        latencies = [query_result.runtime_s for query_result in results]
        counters = [query_result.job.counters for query_result in results]
        peaks = [
            _peak_overlap(results[position :: len(TENANTS)])
            for position in range(len(TENANTS))
        ]
        row = dict(
            scenario=name,
            jobs=len(results),
            makespan_s=max(latencies),
            latency_p99_s=_percentile(latencies, 0.99),
            spec_launched=sum(
                int(c.value(Counters.SPEC_ATTEMPTS_LAUNCHED)) for c in counters
            ),
            spec_won=sum(int(c.value(Counters.SPEC_ATTEMPTS_WON)) for c in counters),
            spec_discarded=sum(
                int(c.value(Counters.SPEC_ATTEMPTS_DISCARDED)) for c in counters
            ),
            preempt_kills=sum(
                int(c.value(Counters.PREEMPT_ATTEMPTS_KILLED)) for c in counters
            ),
            rescheduled=sum(
                query_result.job.rescheduled_tasks for query_result in results
            ),
            peak_running_per_tenant=max(peaks),
            slot_quota=_CHAOS_QUOTA,
            quota_respected=max(peaks) <= _CHAOS_QUOTA,
            results_identical=answer == baseline_records,
        )
        result.add_row(**row)
        return row

    failure_free = run("failure_free", base, None)
    run("straggler", base, straggler)
    run("straggler_speculation", base.with_concurrency(speculative_execution=True), straggler)
    run(
        "node_death",
        base,
        ConcurrentChaos(
            node_failure=FailureEvent(
                node_id=_CHAOS_DEATH_NODE,
                at_progress=_CHAOS_KILL_FRACTION,
                expiry_interval_s=_CHAOS_EXPIRY_S,
            ),
            kill_time_s=_CHAOS_KILL_FRACTION * failure_free["makespan_s"],
        ),
    )
    run(
        "preemption",
        base.with_concurrency(
            max_jobs=2,
            preemption=True,
            tenant_weights={TENANTS[0]: 2.0, TENANTS[1]: 1.0},
        ),
        None,
    )

    result.notes = (
        "all scenarios share one backlog and must reproduce failure_free's answers bit "
        "for bit; straggler vs straggler_speculation pins the speculation makespan win; "
        "node_death pins p99 containment; preemption pins the per-tenant quota under "
        "weighted fair sharing."
    )
    return result
