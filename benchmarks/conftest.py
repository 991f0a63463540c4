"""Shared configuration of the benchmark suite.

Every benchmark regenerates one table or figure of the paper on the scaled-down simulated
cluster and prints the resulting table (run pytest with ``-s`` to see them); the recorded
benchmark time is the wall-clock cost of the reproduction harness itself, while the scientific
output is the simulated-seconds table, which is also attached to the benchmark's ``extra_info``.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.report import FigureResult


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
