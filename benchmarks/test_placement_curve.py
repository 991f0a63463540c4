"""Placement benchmark: index-locality recovery after a node loss plus an eviction storm.

Two identical HAIL deployments, both with index-aware scheduling, differ in one knob: the
*managed* one runs the placement balancer, which re-creates lost adaptive replicas; the
*control* one does not.  A query filtering on ``f1`` repeats with an eager offer rate until
both are fully index-local (the pre-failure level).  Then, on each, the node with the largest
adaptive footprint dies and a deliberately tight :class:`~repro.cluster.disk.DiskPressurePolicy`
evicts most surviving adaptive replicas.  The recovery rounds freeze the offer rate at zero, so
scan-time pay-forward builds cannot mask the comparison: the balancer is the only repair.  With
it, the index-local task fraction recovers to at least 90% of its pre-failure level; without
it, the control deployment stays degraded.
"""

from dataclasses import replace

from repro.cluster.disk import DiskPressurePolicy
from repro.datagen.synthetic import VALUE_RANGE
from repro.engine.lifecycle import evict_under_pressure
from repro.experiments.deployments import deploy_hail
from repro.hail.scheduler import index_local_task_fraction
from repro.query.predicate import Operator, Predicate, Query
from repro.workloads.workload import synthetic_workload


def _disrupt(system):
    """Kill the node with the largest adaptive footprint, run an eviction storm that allows
    40% of that footprint per node, and freeze the offer rate at zero; both deployments
    converged identically, so this disrupts them identically."""
    footprints = system.hdfs.namenode.adaptive_bytes_by_node()
    system.cluster.kill_node(max(sorted(footprints), key=footprints.__getitem__))
    storm = DiskPressurePolicy(
        capacity_bytes=max(footprints.values()) * 0.4, high_watermark=0.5, low_watermark=0.4
    )
    evict_under_pressure(system.hdfs, storm)
    system.config = replace(system.config, adaptive_offer_rate=0.0)


def test_placement_recovery_curve(config):
    """Index-local fraction: collapse at the disruption, balancer-driven recovery to >=90%."""
    workload = synthetic_workload()
    path, bound = workload.path, int(round(0.1 * VALUE_RANGE))
    query = Query(
        name="placement-f1",
        predicate=Predicate.comparison("f1", Operator.LT, bound),
        projection=tuple(workload.schema.field_names[:9]),
        selectivity=0.1,
    )
    systems = [
        deploy_hail(
            config,
            config.hail_config(splitting=False)
            .with_adaptive(True, offer_rate=1.0)
            # Generous budget: natural pressure never fires; the storm is applied explicitly.
            .with_lifecycle(eviction=True, capacity_bytes=float(10**12))
            .with_placement(scheduling=True, balancer=balancer, rebuilds_per_job=6),
        )
        for balancer in (True, False)
    ]
    managed, control = systems
    answers = set()

    def run_round():
        """Index-local fraction, then coverage, of each deployment after one run of the query."""
        fractions, coverages = [], []
        for system in systems:
            result = system.run_query(query, path)
            answers.add(tuple(result.sorted_records()))
            fractions.append(index_local_task_fraction(result.job.counters))
            coverages.append(system.index_coverage(path, "f1"))
        return (*fractions, *coverages)

    for _ in range(3):
        pre, _, *coverages = run_round()
    # The build phase converged: both deployments end it fully index-local and covered.
    assert pre > 0.9
    assert coverages == [1.0, 1.0]

    _disrupt(managed)
    _disrupt(control)
    recovery = [run_round() for _ in range(8)]
    assert len(answers) == 1
    # The disruption actually hurt: the first recovery round is well below the pre level.
    managed_first, control_first = recovery[0][:2]
    assert managed_first < 0.5 * pre and control_first < 0.5 * pre

    # The managed deployment recovers to >=90% of the pre-failure index-local fraction (the
    # balancer re-replicates its coverage), never ending below where it started ...
    managed_final, control_final, managed_coverage, control_coverage = recovery[-1]
    rebuilds = [a for r in managed.lifecycle.reports for a in r.actions if a.kind == "rebuild"]
    assert managed_final >= 0.9 * pre and managed_final >= managed_first
    assert managed_coverage == 1.0 and rebuilds
    # ... while the balancer-off control stays degraded: nothing rebuilds the lost coverage.
    assert control_final < 0.9 * pre and control_final < managed_final
    assert control_coverage < 0.5
