"""Experiment harnesses regenerating every table and figure of the paper's evaluation.

Each module exposes one function per figure/table that builds the required deployments on a
scaled-down simulated cluster, runs the experiment, and returns a
:class:`~repro.experiments.report.FigureResult` whose rows mirror the series the paper plots.
Absolute numbers are simulated seconds at a reduced scale; the *shapes* (which system wins, by
roughly which factor, where crossovers happen) are the reproduction target.

Overview (the README's "Reproducing the paper's figures" table maps each to its benchmark):

- :mod:`repro.experiments.upload`     — Figure 4(a)/(b)/(c) and the Section 5 full-text micro-benchmark
- :mod:`repro.experiments.scaleup`    — Table 2(a)/(b)
- :mod:`repro.experiments.scaleout`   — Figure 5
- :mod:`repro.experiments.queries`    — Figures 6 and 7 (HailSplitting disabled)
- :mod:`repro.experiments.failover`   — Figure 8
- :mod:`repro.experiments.splitting`  — Figure 9 (HailSplitting enabled)
- :mod:`repro.experiments.runner`     — run everything and print a report

The extension experiments (ablations, adaptive convergence and lifecycle, operators,
placement, saturation, chaos and crash recovery) have no harness here: each is a
``benchmarks/test_*_curve.py`` (or ``test_ablations.py``, ``test_adaptive_convergence.py``)
that builds its scenario and asserts its floors inline.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.experiments.deployments import DatasetSpec, Deployment, build_deployment
from repro.experiments import failover, queries, scaleout, scaleup, splitting, upload
from repro.experiments.runner import run_all

__all__ = [
    "ExperimentConfig",
    "FigureResult",
    "DatasetSpec",
    "Deployment",
    "build_deployment",
    "failover",
    "queries",
    "scaleout",
    "scaleup",
    "splitting",
    "upload",
    "run_all",
]
