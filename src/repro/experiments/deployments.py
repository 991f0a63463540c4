"""Deployment builders shared by the experiment harnesses.

A *deployment* is one dataset uploaded into one or more systems (Hadoop, Hadoop++, HAIL), each
running on its own fresh simulated cluster so that experiments never interfere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.experiments.config import ExperimentConfig
from repro.hail import HailConfig, HailSystem
from repro.layouts.schema import Schema
from repro.systems.base import BaseSystem, SystemUploadReport
from repro.workloads.workload import Workload, bob_workload, synthetic_workload

#: Canonical system names, in the order the paper's figures list them.
SYSTEM_NAMES = ("Hadoop", "Hadoop++", "HAIL")


@dataclass(frozen=True)
class DatasetSpec:
    """Which dataset an experiment runs on, resolved to a workload definition."""

    name: str
    workload: Workload

    @classmethod
    def by_name(cls, name: str) -> "DatasetSpec":
        """``"uservisits"`` (Bob's workload) or ``"synthetic"`` (Table 1 workload)."""
        key = name.lower()
        if key in ("uservisits", "uv", "bob"):
            return cls(name="UserVisits", workload=bob_workload())
        if key in ("synthetic", "syn"):
            return cls(name="Synthetic", workload=synthetic_workload())
        raise KeyError(f"unknown dataset {name!r}; use 'uservisits' or 'synthetic'")


@dataclass
class Deployment:
    """One dataset uploaded into one or more systems."""

    config: ExperimentConfig
    dataset: DatasetSpec
    records: list[tuple]
    schema: Schema
    path: str
    data_scale: float
    systems: dict[str, BaseSystem] = field(default_factory=dict)
    upload_reports: dict[str, SystemUploadReport] = field(default_factory=dict)

    @property
    def queries(self):
        """The workload queries attached to the dataset."""
        return self.dataset.workload.queries

    def system(self, name: str) -> BaseSystem:
        """Look up a deployed system by its canonical name."""
        return self.systems[name]


def build_deployment(
    config: ExperimentConfig,
    dataset: str = "uservisits",
    systems: Sequence[str] = SYSTEM_NAMES,
    num_indexes: int = 3,
    splitting: bool = True,
    hail_replication: Optional[int] = None,
    index_attributes: Optional[Sequence[str]] = None,
    trojan_attribute: Optional[str] = "__workload__",
    upload: bool = True,
    hail_config: Optional[HailConfig] = None,
) -> Deployment:
    """Generate the dataset, build the requested systems and (optionally) upload into each.

    Parameters mirror the experiment knobs of the paper: ``num_indexes`` limits how many
    replicas get an index (Figure 4(a)/(b)), ``hail_replication`` raises the replication factor
    (Figure 4(c)), ``splitting`` toggles HailSplitting (Figures 6/7 vs Figure 9), and
    ``index_attributes`` overrides the per-replica index configuration (HAIL-1Idx in Figure 8).
    ``trojan_attribute=None`` builds Hadoop++ without any trojan index (its "0 indexes" upload
    configuration); the default uses the workload's single trojan attribute.  ``hail_config``
    deploys HAIL with exactly that configuration (the extension experiments' adaptive,
    lifecycle and placement knobs) instead of the one the four HAIL parameters describe.
    """
    spec = DatasetSpec.by_name(dataset)
    workload = spec.workload
    records = workload.generate(config.num_records, seed=config.seed)
    schema = workload.schema
    scale = config.data_scale(schema, records)
    path = workload.path

    replication = hail_replication if hail_replication is not None else config.replication
    if index_attributes is None:
        hail_attributes = _hail_attributes(workload, schema, num_indexes, replication)
    else:
        hail_attributes = tuple(index_attributes)
    trojan = workload.trojan_attribute if trojan_attribute == "__workload__" else trojan_attribute

    deployment = Deployment(
        config=config,
        dataset=spec,
        records=records,
        schema=schema,
        path=path,
        data_scale=scale,
    )

    if hail_config is None:
        hail_config = config.hail_config(hail_attributes, splitting, replication)
    for name in systems:
        system = _build_system(name, config, scale, hail_config, trojan)
        deployment.systems[name] = system
        if upload:
            deployment.upload_reports[name] = system.upload(
                path, records, schema, rows_per_block=config.rows_per_block
            )
    return deployment


def deploy_hail(
    config: ExperimentConfig, hail_config: HailConfig, dataset: str = "synthetic"
) -> HailSystem:
    """One HAIL system with ``dataset`` uploaded, configured exactly by ``hail_config``.

    What the extension experiments (adaptive, lifecycle, placement) stand up several of,
    each on its own fresh cluster, differing only in the knobs of ``hail_config``.
    """
    return build_deployment(
        config, dataset, systems=("HAIL",), hail_config=hail_config
    ).system("HAIL")


# --------------------------------------------------------------------------- internals
def _hail_attributes(
    workload: Workload, schema: Schema, num_indexes: int, replication: int
) -> tuple[str, ...]:
    """First ``num_indexes`` index attributes, extended with further schema attributes when the
    replication factor exceeds the workload's preferred list (Figure 4(c))."""
    preferred = list(workload.hail_index_attributes)
    for name in schema.field_names:
        if len(preferred) >= replication:
            break
        if name not in preferred:
            preferred.append(name)
    return tuple(preferred[: min(num_indexes, replication)])


def _build_system(
    name: str,
    config: ExperimentConfig,
    scale: float,
    hail_config: HailConfig,
    trojan_attribute: Optional[str],
) -> BaseSystem:
    if name == "Hadoop":
        return HadoopSystem(
            config.cluster(), cost=config.cost_model(scale), replication=config.replication
        )
    if name == "Hadoop++":
        return HadoopPlusPlusSystem(
            config.cluster(),
            trojan_attribute=trojan_attribute,
            cost=config.cost_model(scale),
            replication=config.replication,
            functional_partition_size=1,
        )
    if name == "HAIL":
        return HailSystem(config.cluster(), config=hail_config, cost=config.cost_model(scale))
    raise KeyError(f"unknown system {name!r}; known: {SYSTEM_NAMES}")
