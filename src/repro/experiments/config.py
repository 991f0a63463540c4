"""Experiment configuration: how large the scaled-down reproduction runs are.

The paper's experiments use 10–100 nodes and 13–20 GB per node.  The reproduction runs the same
experiments on a *miniature*: a handful of simulated nodes, a few dozen blocks per node, and a
few hundred functional rows per block, while the cost model's ``data_scale`` makes every
functional block stand in for a full 64 MB logical HDFS block.  The shapes of the results are
preserved because every system is scaled identically; the benchmark suite uses the default
(small) configuration so that the full figure set regenerates in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.cluster.costmodel import CostModel, CostParameters
from repro.cluster.hardware import HardwareProfile
from repro.cluster.topology import Cluster
from repro.hail.config import HailConfig
from repro.layouts.schema import Schema


@dataclass(frozen=True)
class ExperimentConfig:
    """Size and hardware of one reproduction run."""

    nodes: int = 4
    blocks_per_node: int = 8
    rows_per_block: int = 100
    hardware: str = "physical"
    replication: int = 3
    logical_block_mb: int = 64
    seed: int = 7
    verify_checksums: bool = False
    trials: int = 1

    # ------------------------------------------------------------------ presets
    @classmethod
    def small(cls) -> "ExperimentConfig":
        """Default miniature configuration used by the benchmark suite."""
        return cls()

    @classmethod
    def medium(cls) -> "ExperimentConfig":
        """A larger configuration (closer to the paper's 10-node cluster), still laptop-friendly."""
        return cls(nodes=10, blocks_per_node=16, rows_per_block=200)

    # ------------------------------------------------------------------ derived quantities
    @property
    def num_blocks(self) -> int:
        """Total number of logical blocks in the uploaded dataset."""
        return self.nodes * self.blocks_per_node

    @property
    def num_records(self) -> int:
        """Total number of functional records to generate."""
        return self.num_blocks * self.rows_per_block

    def with_(self, **overrides) -> "ExperimentConfig":
        """Copy of the configuration with some fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------ factories
    def hardware_profile(self) -> HardwareProfile:
        """The node hardware profile named by ``hardware``."""
        return HardwareProfile.by_name(self.hardware)

    def cluster(self, nodes: int | None = None, hardware: str | None = None) -> Cluster:
        """A fresh cluster for one system (systems never share clusters in an experiment)."""
        profile = HardwareProfile.by_name(hardware) if hardware is not None else self.hardware_profile()
        return Cluster.homogeneous(nodes if nodes is not None else self.nodes, profile, seed=self.seed)

    def data_scale(self, schema: Schema, sample_records: Sequence[tuple]) -> float:
        """Scale factor so one functional block represents a ``logical_block_mb`` MB block."""
        sample = list(sample_records[: self.rows_per_block]) or list(sample_records)
        if not sample:
            return 1.0
        functional_block_bytes = sum(schema.text_size(record) for record in sample)
        if functional_block_bytes <= 0:
            return 1.0
        return (self.logical_block_mb * 1024.0 * 1024.0) / functional_block_bytes

    def cost_model(self, data_scale: float) -> CostModel:
        """A cost model calibrated for this configuration."""
        return CostModel(CostParameters(data_scale=data_scale))

    def hail_config(
        self,
        index_attributes: Sequence[str] = (),
        splitting: bool = True,
        replication: int | None = None,
    ) -> HailConfig:
        """The HAIL configuration every experiment deployment starts from.

        ``functional_partition_size=1`` gives the miniature blocks realistic index precision;
        experiments layer their own knobs on top with the ``with_*`` builders.
        """
        return HailConfig(
            index_attributes=tuple(index_attributes),
            replication=replication if replication is not None else self.replication,
            functional_partition_size=1,
            splitting_policy=splitting,
            verify_checksums=self.verify_checksums,
        )
