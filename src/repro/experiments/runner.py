"""Run every reproduced table and figure and print a consolidated report.

Usage (also wired into ``examples/reproduce_paper.py``)::

    from repro.experiments import run_all, ExperimentConfig
    results = run_all(ExperimentConfig.small())
    for figure in results.values():
        figure.print()
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.experiments import (
    adaptive_lifecycle,
    failover,
    queries,
    scaleout,
    scaleup,
    splitting,
    upload,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult


def run_all(
    config: Optional[ExperimentConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, FigureResult]:
    """Regenerate every table/figure of the paper's evaluation section.

    Returns an ordered mapping from experiment id to its :class:`FigureResult`.  ``progress``
    (e.g. ``print``) is called with the experiment id before each experiment starts.
    """
    config = config or ExperimentConfig.small()
    results: dict[str, FigureResult] = {}

    def run(key: str, producer: Callable[[], FigureResult]) -> None:
        if progress is not None:
            progress(key)
        results[key] = producer()

    run("fig4a", lambda: upload.fig4a(config))
    run("fig4b", lambda: upload.fig4b(config))
    run("fig4c", lambda: upload.fig4c(config))
    run("fulltext", lambda: upload.fulltext_comparison(config))
    run("table2a", lambda: scaleup.table2a(config))
    run("table2b", lambda: scaleup.table2b(config))
    run("fig5", lambda: scaleout.fig5(config, cluster_sizes=(10, 20, 40)))
    run("fig6", lambda: queries.fig6(config))
    run("fig7", lambda: queries.fig7(config))
    run("fig8", lambda: failover.fig8(config))
    run("adaptive_lifecycle", lambda: adaptive_lifecycle.adaptive_lifecycle_curve(config))

    if progress is not None:
        progress("fig9")
    fig9_results = splitting.fig9(config)
    results["fig9a"] = fig9_results["a"]
    results["fig9b"] = fig9_results["b"]
    results["fig9c"] = fig9_results["c"]
    return results


def main() -> None:  # pragma: no cover - console entry point
    """Command-line entry point: run all experiments at the small scale and print them."""
    results = run_all(ExperimentConfig.small(), progress=lambda key: print(f"running {key}..."))
    for figure in results.values():
        print()
        figure.print()


if __name__ == "__main__":  # pragma: no cover
    main()
