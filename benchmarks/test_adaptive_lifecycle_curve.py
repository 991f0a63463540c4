"""Lifecycle benchmark: managed adaptivity under disk pressure through a workload shift.

A *managed* deployment (eviction plus auto-tuned knobs) runs a workload that shifts from
``f1`` (:data:`ROUNDS_A` rounds) to ``f3`` (:data:`ROUNDS_B` rounds): new builds push nodes
over their disk-pressure watermarks and the evictor drops the now-unused f1 replicas (least
recently used first, never an upload-time index, never a block's last replica).  A *control*
deployment runs the same rounds with static knobs and no eviction; one upload-time-indexed
deployment per attribute is the steady-state reference.  Every query projects nine
attributes, wide enough that index scans realise real savings.

The per-node byte budget is calibrated by a probe: a throwaway deployment converges phase A
eagerly, and :data:`HEADROOM` times its largest per-node adaptive footprint leaves room for one
converged attribute plus in-flight builds of the next, never two — phase B must evict.  The
drain target sits high (0.75 of the budget) because draining further than the hot working set
evicts recently used replicas that the next round rebuilds.

The floors: adaptive bytes stay under the ceiling every round while the control ends above it,
the cold attribute is the one evicted, and the steady state lands within 10% of the
fully-indexed baseline after at least ten rounds.
"""

from repro.datagen.synthetic import VALUE_RANGE
from repro.experiments.deployments import deploy_hail
from repro.mapreduce.counters import Counters
from repro.query.predicate import Operator, Predicate, Query
from repro.workloads.workload import synthetic_workload

#: The workload's two phases, the rounds of each, and the offer rate of both deployments.
PHASE_A, PHASE_B, ROUNDS_A, ROUNDS_B, OFFER_RATE = "f1", "f3", 5, 20, 0.5
PHASES = (PHASE_A, PHASE_B)

#: The probe-measured per-node footprint is scaled by this to give the per-node budget.
HEADROOM = 1.5


def _phase_query(attribute, schema) -> Query:
    """``SELECT f1..f9 WHERE attribute < 10% of VALUE_RANGE``."""
    bound = int(round(0.1 * VALUE_RANGE))
    projection = tuple(schema.field_names[:9])
    return Query(
        name=f"lifecycle-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, bound),
        projection=projection,
        description=f"SELECT {', '.join(projection)} FROM Synthetic WHERE {attribute} < {bound}",
        selectivity=0.1,
    )


def test_adaptive_lifecycle_curve(config):
    """Convergence-then-steady-state under disk pressure: bounded bytes, indexed-level speed."""
    workload = synthetic_workload()
    path = workload.path
    queries = {attribute: _phase_query(attribute, workload.schema) for attribute in PHASES}
    adaptive = config.hail_config(splitting=False).with_adaptive(True, offer_rate=OFFER_RATE)

    probe = deploy_hail(config, adaptive.with_adaptive(True, offer_rate=1.0))
    probe.run_query(queries[PHASE_A], path)
    probe.run_query(queries[PHASE_A], path)
    footprint = max(probe.hdfs.namenode.adaptive_bytes_by_node().values(), default=0)
    # The probe built adaptive replicas, so there is a footprint to size the budget from.
    assert footprint > 0
    capacity = HEADROOM * footprint
    ceiling = len(probe.cluster) * capacity

    managed = deploy_hail(
        config,
        adaptive.with_lifecycle(
            eviction=True,
            capacity_bytes=capacity,
            high_watermark=0.9,
            low_watermark=0.75,
            auto_tune=True,
        ),
    )
    control = deploy_hail(config, adaptive)
    indexed = {
        attribute: deploy_hail(config, config.hail_config((attribute,), splitting=False))
        for attribute in PHASES
    }
    indexed = {
        attribute: system.run_query(queries[attribute], path)
        for attribute, system in indexed.items()
    }

    evictions, coverage_a, offer_rates = 0, [], []
    for attribute, count in ((PHASE_A, ROUNDS_A), (PHASE_B, ROUNDS_B)):
        for _ in range(count):
            result = managed.run_query(queries[attribute], path)
            control_result = control.run_query(queries[attribute], path)
            # Functional correctness every round, for both the managed and the control.
            assert (
                result.sorted_records()
                == control_result.sorted_records()
                == indexed[attribute].sorted_records()
            )
            # The configured ceiling holds at every round (the eviction guarantee).
            assert managed.adaptive_replica_bytes(path) <= ceiling
            by_node = managed.hdfs.namenode.adaptive_bytes_by_node()
            assert max(by_node.values(), default=0) <= capacity
            evictions += int(result.job.counters.value(Counters.ADAPTIVE_INDEXES_EVICTED))
            coverage_a.append(managed.index_coverage(path, PHASE_A))
            offer_rates.append(managed.lifecycle.tuner.offer_rate)
    assert len(offer_rates) >= 10
    # The unmanaged control deployment ends above the ceiling (unbounded accumulation).
    assert control.adaptive_replica_bytes(path) > ceiling

    # Disk pressure actually fired, and it evicted the *cold* attribute: phase A's coverage
    # decays under phase B's builds while phase B's coverage converges to full.
    assert evictions > 0
    assert coverage_a[-1] < max(coverage_a)
    assert managed.index_coverage(path, PHASE_B) == 1.0

    # The auto-tuner raised the offer rate once savings materialised (phase A converges).
    assert offer_rates[-1] >= offer_rates[0]
    # The budget is tuned to a finite positive value after the first builds were observed.
    budget = managed.lifecycle.tuner.budget
    assert budget is not None and budget >= 1

    # Steady state: within 10% of the fully-indexed baseline of the shifted attribute.
    assert attribute == PHASE_B
    assert result.runtime_s <= 1.1 * indexed[PHASE_B].runtime_s
