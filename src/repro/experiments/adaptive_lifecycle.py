"""Adaptive-index lifecycle under disk pressure — convergence, then managed steady state.

The plain convergence benchmark (``benchmarks/test_adaptive_convergence.py``) shows adaptive
indexing reaching fully indexed performance, but it also shows the problem the lifecycle
manager solves: adaptive replicas accumulate forever and the offer/budget knobs are hand-set.
This experiment runs a *workload shift* against a deployment with the full lifecycle enabled
(auto-tuned knobs plus disk-pressure eviction) and records the convergence-then-steady-state
curve:

- **phase A** — a query filtering on ``f1`` repeats until the deployment converges toward
  f1-indexed performance (adaptive builds, auto-raised offer rate, auto-sized budget);
- **phase B** — the workload shifts to ``f3``.  New builds push nodes over their disk-pressure
  watermarks, and the evictor drops the now-unused f1 replicas (least-recently-used first,
  never an upload-time index, never a block's last replica) while f3 coverage converges.

A *control* deployment runs the same workload with static knobs and no eviction: its adaptive
replica bytes keep growing past the ceiling the managed deployment respects.  Fully-indexed
deployments (one per phase attribute) provide the steady-state reference — the managed curve
must end within a few percent of them while staying under the byte ceiling.

The per-node byte budget is *calibrated by a probe*: a throwaway deployment converges phase A
eagerly, and its measured per-node adaptive footprint sizes a budget that fits roughly one
attribute's worth of adaptive replicas (`headroom` times), which is exactly the squeeze that
forces phase B to evict phase A's indexes.
"""

from __future__ import annotations

from typing import Optional

from repro.datagen.synthetic import VALUE_RANGE
from repro.experiments.config import ExperimentConfig
from repro.experiments.deployments import DatasetSpec, deploy_hail
from repro.experiments.report import FigureResult
from repro.hail.predicate import Operator, Predicate
from repro.mapreduce.counters import Counters
from repro.workloads.query import Query

#: Columns of the lifecycle curve (one row per workload round).
_LIFECYCLE_COLUMNS = [
    "round",
    "phase_attribute",
    "runtime_s",
    "rr_ms",
    "indexed_runtime_s",
    "coverage_f1",
    "coverage_f3",
    "adaptive_bytes",
    "adaptive_bytes_ceiling",
    "control_adaptive_bytes",
    "max_node_adaptive_bytes",
    "node_budget_bytes",
    "evictions_total",
    "offer_rate",
    "budget",
    "results_agree",
]

#: The two filter attributes of the shifting workload (phase A, then phase B).
PHASE_ATTRIBUTES: tuple[str, str] = ("f1", "f3")

#: Attributes projected by every query: wide enough that index scans realise real savings
#: (a one-column projection is seek-dominated at functional scale and shows none).
_PROJECTED_ATTRIBUTES = 9


def _phase_query(attribute: str, schema, value_range: int, selectivity: float) -> Query:
    """The repeated query of one phase: ``SELECT f1..f9 WHERE attribute < bound``."""
    bound = int(round(selectivity * value_range))
    projection = tuple(schema.field_names[:_PROJECTED_ATTRIBUTES])
    return Query(
        name=f"lifecycle-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, bound),
        projection=projection,
        description=(
            f"SELECT {', '.join(projection)} FROM Synthetic WHERE {attribute} < {bound}"
        ),
        selectivity=selectivity,
    )


def adaptive_lifecycle_curve(
    config: Optional[ExperimentConfig] = None,
    rounds_phase_a: int = 5,
    rounds_phase_b: int = 20,
    selectivity: float = 0.1,
    headroom: float = 1.5,
    offer_rate: float = 0.5,
) -> FigureResult:
    """Convergence-then-steady-state curve of the managed deployment under a workload shift.

    ``headroom`` sizes the disk budget relative to one attribute's worth of adaptive
    replicas (measured by the probe): 1.5 leaves room for one converged attribute plus
    in-flight builds of the next, but not for two full attributes — phase B must evict.
    Phase B is long because that is the point of the auto-tuned budget: convergence proceeds
    a few blocks per job (whatever fits the overhead target), never in one expensive burst.

    The drain target (low watermark) sits deliberately high, at 0.75 of the budget: draining a
    pressured node further than its hot working set forces eviction of *recently used*
    replicas, which the next round rebuilds — steady-state thrash.  Keeping the drain inside
    the cold pool is the operator guidance the accompanying guide spells out.
    """
    config = config or ExperimentConfig.small()
    workload = DatasetSpec.by_name("synthetic").workload
    path = workload.path
    queries = {
        attribute: _phase_query(attribute, workload.schema, VALUE_RANGE, selectivity)
        for attribute in PHASE_ATTRIBUTES
    }

    adaptive_base = config.hail_config(splitting=False).with_adaptive(True, offer_rate=offer_rate)

    # ------------------------------------------------------------------ probe: size the budget
    # A throwaway deployment converges phase A eagerly (offer rate 1.0); its per-node adaptive
    # footprint calibrates the budget: `headroom` times one attribute's worth of adaptive
    # replicas per node — room for the converged attribute plus in-flight builds of the next,
    # but never for two full attributes.
    probe = deploy_hail(config, adaptive_base.with_adaptive(True, offer_rate=1.0))
    probe.run_query(queries[PHASE_ATTRIBUTES[0]], path)
    probe.run_query(queries[PHASE_ATTRIBUTES[0]], path)
    node_footprint_max = max(
        probe.hdfs.namenode.adaptive_bytes_by_node().values(), default=0
    )
    if node_footprint_max <= 0:
        raise RuntimeError("probe built no adaptive replicas; cannot size a byte budget")
    capacity = headroom * node_footprint_max
    high_watermark = 0.9
    low_watermark = 0.75
    bytes_ceiling = len(probe.cluster) * capacity

    # ------------------------------------------------------------------ the four deployments
    managed = deploy_hail(
        config,
        adaptive_base.with_lifecycle(
            eviction=True,
            capacity_bytes=capacity,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
            auto_tune=True,
        ),
    )
    # static knobs, no eviction: unbounded accumulation
    control = deploy_hail(config, adaptive_base)
    indexed = {
        attribute: deploy_hail(config, config.hail_config((attribute,), splitting=False))
        for attribute in PHASE_ATTRIBUTES
    }
    indexed_results = {
        attribute: indexed[attribute].run_query(queries[attribute], path)
        for attribute in PHASE_ATTRIBUTES
    }
    references = {
        attribute: indexed_results[attribute].sorted_records()
        for attribute in PHASE_ATTRIBUTES
    }

    result = FigureResult(
        figure="Adaptive lifecycle",
        description=(
            f"workload shift {PHASE_ATTRIBUTES[0]}->{PHASE_ATTRIBUTES[1]} "
            f"({rounds_phase_a}+{rounds_phase_b} rounds); eviction + auto-tuning on, "
            f"per-node adaptive budget {capacity:.0f} B, total ceiling {bytes_ceiling:.0f} B"
        ),
        columns=list(_LIFECYCLE_COLUMNS),
    )

    evictions_total = 0
    round_number = 0
    schedule = [(PHASE_ATTRIBUTES[0], rounds_phase_a), (PHASE_ATTRIBUTES[1], rounds_phase_b)]
    for attribute, rounds in schedule:
        query = queries[attribute]
        for _ in range(rounds):
            managed_result = managed.run_query(query, path)
            control_result = control.run_query(query, path)
            evictions_total += int(
                managed_result.job.counters.value(Counters.ADAPTIVE_INDEXES_EVICTED)
            )
            agree = (
                managed_result.sorted_records() == references[attribute]
                and control_result.sorted_records() == references[attribute]
            )
            result.add_row(
                round=round_number,
                phase_attribute=attribute,
                runtime_s=managed_result.runtime_s,
                rr_ms=managed_result.record_reader_s * 1000.0,
                indexed_runtime_s=indexed_results[attribute].runtime_s,
                coverage_f1=managed.index_coverage(path, PHASE_ATTRIBUTES[0]),
                coverage_f3=managed.index_coverage(path, PHASE_ATTRIBUTES[1]),
                adaptive_bytes=managed.adaptive_replica_bytes(path),
                adaptive_bytes_ceiling=bytes_ceiling,
                control_adaptive_bytes=control.adaptive_replica_bytes(path),
                max_node_adaptive_bytes=max(
                    managed.hdfs.namenode.adaptive_bytes_by_node().values(), default=0
                ),
                node_budget_bytes=capacity,
                evictions_total=evictions_total,
                offer_rate=managed.lifecycle.tuner.offer_rate,
                budget=managed.lifecycle.tuner.budget,
                results_agree=agree,
            )
            round_number += 1
    result.notes = (
        "managed = eviction + auto-tuned knobs; control = static knobs, no eviction. "
        "The ceiling is headroom x one attribute's adaptive bytes (probe-calibrated): the "
        "managed deployment must stay under it through the workload shift while its "
        "steady-state runtime approaches indexed_runtime_s; the control deployment ends "
        "above it (both attributes' replicas accumulate)."
    )
    return result
