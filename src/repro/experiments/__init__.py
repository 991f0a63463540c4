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
- :mod:`repro.experiments.adaptive_lifecycle` — lifecycle-managed adaptivity under disk
  pressure: eviction + auto-tuned knobs through a workload shift (extension)
- :mod:`repro.experiments.saturation` — multi-tenant saturation: throughput and latency
  percentiles vs. ``max_concurrent_jobs`` on one shared deployment (extension)
- :mod:`repro.experiments.recovery`   — crash recovery: kill a persistent deployment after
  adaptive convergence, restore from the journal, and compare the time to first answer
  against a persistence-off cold restart (extension)
- :mod:`repro.experiments.runner`     — run everything and print a report
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.experiments.deployments import DatasetSpec, Deployment, build_deployment
from repro.experiments import (
    adaptive_lifecycle,
    failover,
    queries,
    recovery,
    saturation,
    scaleout,
    scaleup,
    splitting,
    upload,
)
from repro.experiments.runner import run_all

__all__ = [
    "ExperimentConfig",
    "FigureResult",
    "DatasetSpec",
    "Deployment",
    "build_deployment",
    "adaptive_lifecycle",
    "failover",
    "queries",
    "recovery",
    "saturation",
    "scaleout",
    "scaleup",
    "splitting",
    "upload",
    "run_all",
]
