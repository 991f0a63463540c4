"""Shared configuration of the benchmark suite.

A figure benchmark regenerates one table or figure of the paper on the scaled-down simulated
cluster through :func:`run_figure` and prints the resulting table (run pytest with ``-s`` to
see them); the recorded benchmark time is the wall-clock cost of the reproduction harness
itself, while the scientific output is the simulated-seconds table, which is also attached to
the benchmark's ``extra_info``.  The extension tests (ablations, adaptive convergence and
lifecycle, operators, placement, saturation, chaos and recovery) instead build their scenario
directly on the ``config`` fixture and assert their floors on the query results, counters and
system accessors; :func:`drain_backlog` is the two-tenant backlog the saturation and chaos
tests share.
"""

from __future__ import annotations

import math

import pytest

from repro.api import Session, col, run_multi_tenant_batch
from repro.datagen.synthetic import VALUE_RANGE, SyntheticGenerator
from repro.experiments import ExperimentConfig
from repro.experiments.report import FigureResult

#: The tenants sharing a backlog deployment; two is the minimum that makes "multi-tenant" honest.
TENANTS = ("alice", "bob")

#: The attributes the backlog's mixed filters cycle through.
BACKLOG_ATTRIBUTES = ("f1", "f2", "f3")


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """The benchmark-scale experiment configuration."""
    return ExperimentConfig(nodes=4, blocks_per_node=8, rows_per_block=100, seed=7)


@pytest.fixture(scope="session")
def replication_config() -> ExperimentConfig:
    """Configuration for experiments that need at least ten nodes (Figure 4(c))."""
    return ExperimentConfig(nodes=10, blocks_per_node=4, rows_per_block=100, seed=7)


def run_figure(benchmark, producer, *args, **kwargs) -> FigureResult:
    """Run a figure-producing callable exactly once under pytest-benchmark and print it."""
    result = benchmark.pedantic(producer, args=args, kwargs=kwargs, rounds=1, iterations=1)
    figures = result.values() if isinstance(result, dict) else [result]
    for figure in figures:
        print()
        print(figure.to_text())
        benchmark.extra_info[figure.figure] = figure.rows
    return result


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def drain_backlog(config, hail_config, num_queries: int, chaos=None):
    """Deploy ``hail_config`` fresh, queue ``num_queries`` mixed filters and drain them.

    The synthetic dataset is uploaded by :data:`TENANTS`' first session and the others attach
    to it.  Query ``i`` goes to tenant ``i % len(TENANTS)`` and filters
    :data:`BACKLOG_ATTRIBUTES` round-robin on a range of 5%..25% of :data:`VALUE_RANGE`, so
    consecutive jobs differ in selectivity and map-phase width, the non-uniformity an
    interleaving scheduler exploits.  One :func:`run_multi_tenant_batch` drains every tenant,
    under ``chaos`` if given.  Returns the results in submission order and the sessions.
    """
    generator = SyntheticGenerator(seed=config.seed)
    first = Session.deploy(nodes=config.nodes, hail_config=hail_config, tenant=TENANTS[0])
    first.upload(
        "/data/saturation",
        generator.generate(config.num_records),
        generator.schema,
        rows_per_block=config.rows_per_block,
    )
    sessions = [first] + [first.attach(tenant) for tenant in TENANTS[1:]]
    for i in range(num_queries):
        attribute = BACKLOG_ATTRIBUTES[i % len(BACKLOG_ATTRIBUTES)]
        width = int(VALUE_RANGE * (0.05 + 0.02 * (i % 11)))
        lo = (i * 997) % (VALUE_RANGE - width)
        sessions[i % len(sessions)].dataset("/data/saturation").where(
            col(attribute).between(lo, lo + width)
        ).named(f"sat-{i}-{attribute}").submit()
    per_tenant = run_multi_tenant_batch(sessions, chaos=chaos)
    results = [
        result
        for rank in zip(*(per_tenant[session.tenant] for session in sessions))
        for result in rank
    ]
    assert len(results) == num_queries
    return results, sessions
