"""Placement-aware scheduling under failures and eviction storms — locality recovery.

The paper's failover and scale-out results (Figures 5/8) rest on HAIL keeping *some* useful
replica close to every task.  After adaptive build/evict cycles that guarantee erodes: a node
death takes its adaptive index replicas with it, an eviction storm reclaims more, and a
scheduler that is merely *data*-local keeps launching tasks next to replicas that cannot answer
with an index.  This experiment measures the metric that erosion shows up in — the
**index-local task fraction** (``SCHED_INDEX_LOCAL`` over all classified launches) — through a
deterministic disruption, for two identical deployments that differ in exactly one knob:

- **managed** — ``placement_balancer=True``: the post-job balancer re-creates adaptive
  replicas whose coverage was lost (demand-gated re-replication) and migrates replicas off
  skewed nodes;
- **control** — balancer off: the scheduler still *prefers* indexed nodes, but nobody repairs
  the placement.

Both phases run with ``index_aware_scheduling`` on so the fraction is measured identically:

- **build phase** — a query filtering on one attribute repeats with an eager offer rate until
  the deployment converges (index-local fraction ≈ 1); the last build round's fraction is the
  *pre-failure level*;
- **disruption** — the node with the largest adaptive footprint is killed (and stays dead),
  then an eviction storm (a deliberately tight :class:`~repro.cluster.disk.DiskPressurePolicy`
  applied once, identically to both deployments) reclaims most surviving adaptive replicas;
- **recovery phase** — the same query repeats with the offer rate frozen to zero (modelling a
  steady-state deployment whose latency budget forbids scan-time build penalties), so the
  *only* repair mechanism in play is the balancer.  The managed fraction must climb back to
  ≥ 90% of the pre-failure level; the control fraction stays at whatever survived the storm.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.cluster.disk import DiskPressurePolicy
from repro.datagen.synthetic import VALUE_RANGE
from repro.engine.lifecycle import evict_under_pressure
from repro.experiments.config import ExperimentConfig
from repro.experiments.deployments import DatasetSpec, deploy_hail
from repro.experiments.report import FigureResult
from repro.hail import HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.hail.scheduler import index_local_task_fraction
from repro.workloads.query import Query

#: Columns of the placement curve (one row per workload round, both deployments side by side).
_PLACEMENT_COLUMNS = [
    "round",
    "phase",
    "managed_index_local_fraction",
    "control_index_local_fraction",
    "pre_failure_fraction",
    "managed_coverage",
    "control_coverage",
    "managed_rebuilds_total",
    "managed_migrations_total",
    "managed_adaptive_bytes",
    "results_agree",
]

#: The filter attribute of the repeated query (any synthetic field works).
PLACEMENT_ATTRIBUTE = "f1"

#: How much of the survivors' peak per-node adaptive footprint the storm policy allows —
#: deliberately tight, so the one-shot eviction pass reclaims most adaptive replicas.
_STORM_CAPACITY_FRACTION = 0.4


def _query(schema, selectivity: float) -> Query:
    """The repeated query: ``SELECT f1..f9 WHERE f1 < bound`` (wide enough to reward indexes)."""
    bound = int(round(selectivity * VALUE_RANGE))
    projection = tuple(schema.field_names[:9])
    return Query(
        name=f"placement-{PLACEMENT_ATTRIBUTE}",
        predicate=Predicate.comparison(PLACEMENT_ATTRIBUTE, Operator.LT, bound),
        projection=projection,
        description=(
            f"SELECT {', '.join(projection)} FROM Synthetic "
            f"WHERE {PLACEMENT_ATTRIBUTE} < {bound}"
        ),
        selectivity=selectivity,
    )


def _disrupt(system: HailSystem) -> tuple[int, int]:
    """Kill the node with the largest adaptive footprint, then run an eviction storm.

    Both deployments converge identically (same seeds, same offers), so applying this rule to
    each one's own namenode statistics disrupts them identically.  Returns
    ``(victim node, replicas evicted by the storm)``.
    """
    footprints = system.hdfs.namenode.adaptive_bytes_by_node()
    victim = max(sorted(footprints), key=lambda node_id: footprints[node_id])
    system.cluster.kill_node(victim)
    storm = DiskPressurePolicy(
        capacity_bytes=max(footprints.values()) * _STORM_CAPACITY_FRACTION,
        high_watermark=0.5,
        low_watermark=0.4,
    )
    evicted = evict_under_pressure(system.hdfs, storm)
    return victim, len(evicted)


def placement_recovery_curve(
    config: Optional[ExperimentConfig] = None,
    rounds_build: int = 3,
    rounds_recover: int = 8,
    selectivity: float = 0.1,
) -> FigureResult:
    """Index-local task fraction through a node loss + eviction storm, balancer on vs. off.

    The recovery phase freezes the offer rate at zero on *both* deployments, so scan-time
    pay-forward builds cannot mask the comparison: whatever locality comes back is the
    placement balancer's doing.  ``rounds_recover`` must give the balancer's bounded per-job
    rebuild quota time to re-cover every lost block (quota × rounds ≥ blocks lost).
    """
    config = config or ExperimentConfig.small()
    workload = DatasetSpec.by_name("synthetic").workload
    path = workload.path
    query = _query(workload.schema, selectivity)

    def deploy(balancer: bool) -> HailSystem:
        hail_config = (
            config.hail_config(splitting=False)
            .with_adaptive(True, offer_rate=1.0)
            # Generous budget: natural pressure never fires; the storm is applied explicitly.
            .with_lifecycle(eviction=True, capacity_bytes=float(10**12))
            .with_placement(scheduling=True, balancer=balancer, rebuilds_per_job=6)
        )
        return deploy_hail(config, hail_config)

    managed = deploy(balancer=True)
    control = deploy(balancer=False)

    result = FigureResult(
        figure="Placement recovery",
        description=(
            f"index-local task fraction through node loss + eviction storm "
            f"({rounds_build} build + {rounds_recover} recovery rounds); "
            "managed = placement balancer on, control = off"
        ),
        columns=list(_PLACEMENT_COLUMNS),
    )

    reference = None
    pre_failure_fraction = 0.0
    round_number = 0

    def record_round(phase: str) -> None:
        nonlocal reference, round_number
        managed_result = managed.run_query(query, path)
        control_result = control.run_query(query, path)
        if reference is None:
            reference = managed_result.sorted_records()
        agree = (
            managed_result.sorted_records() == reference
            and control_result.sorted_records() == reference
        )
        kinds = [action.kind for report in managed.lifecycle.reports for action in report.actions]
        result.add_row(
            round=round_number,
            phase=phase,
            managed_index_local_fraction=index_local_task_fraction(
                managed_result.job.counters
            ),
            control_index_local_fraction=index_local_task_fraction(
                control_result.job.counters
            ),
            pre_failure_fraction=pre_failure_fraction,
            managed_coverage=managed.index_coverage(path, PLACEMENT_ATTRIBUTE),
            control_coverage=control.index_coverage(path, PLACEMENT_ATTRIBUTE),
            managed_rebuilds_total=kinds.count("rebuild"),
            managed_migrations_total=kinds.count("migrate"),
            managed_adaptive_bytes=managed.adaptive_replica_bytes(path),
            results_agree=agree,
        )
        round_number += 1

    for _ in range(rounds_build):
        record_round("build")
    pre_failure_fraction = result.rows[-1]["managed_index_local_fraction"]

    _disrupt(managed)
    _disrupt(control)
    # Freeze scan-time builds: recovery must come from the balancer (or nowhere).
    managed.config = replace(managed.config, adaptive_offer_rate=0.0)
    control.config = replace(control.config, adaptive_offer_rate=0.0)

    for _ in range(rounds_recover):
        record_round("recover")

    result.notes = (
        "managed = index-aware scheduling + placement balancer; control = index-aware "
        "scheduling only.  After the disruption the offer rate is frozen at 0, so recovery "
        "of the index-local fraction (and of index coverage) is attributable to the "
        "balancer's demand-gated re-replication alone; the control deployment keeps "
        "whatever coverage survived the storm."
    )
    return result
