"""The HAIL system facade: upload with per-replica indexes, query with index-aware MapReduce."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.costmodel import CostModel
from repro.cluster.topology import Cluster
from repro.engine.adaptive import ADAPTIVE_PROPERTY, AdaptiveJobContext
from repro.engine.lifecycle import LIFECYCLE_PROPERTY, AdaptiveLifecycleManager
from repro.hail.annotation import JOB_PROPERTY
from repro.hail.config import HailConfig
from repro.hail.input_format import HailInputFormat
from repro.hail.record_reader import projected_row, projected_rows
from repro.hail.scheduler import (
    adaptive_replica_bytes,
    adaptive_replica_count,
    index_coverage,
    replica_distribution,
)
from repro.hail.upload import HailUploadPipeline
from repro.engine.planner import ZONE_MAP_PROPERTY, PhysicalPlanner
from repro.layouts.schema import Schema
from repro.mapreduce.job import JobConf
from repro.mapreduce.job_tracker import SCHEDULING_PROPERTY
from repro.systems.base import BaseSystem, scan_job


class HailSystem(BaseSystem):
    """HDFS + Hadoop MapReduce with the HAIL enhancements enabled.

    Parameters
    ----------
    cluster:
        The simulated cluster to deploy on.
    index_attributes:
        Convenience shortcut for ``HailConfig.for_attributes(...)``: one clustered index per
        replica, in order.  Ignored when an explicit ``config`` is given.
    config:
        Full :class:`~repro.hail.config.HailConfig`.
    cost:
        Shared cost model; a fresh default one is created when omitted.
    """

    name = "HAIL"

    def __init__(
        self,
        cluster: Cluster,
        index_attributes: Optional[Sequence[str]] = None,
        config: Optional[HailConfig] = None,
        cost: Optional[CostModel] = None,
    ) -> None:
        if config is None:
            config = HailConfig.for_attributes(tuple(index_attributes or ()))
        self.config = config
        super().__init__(cluster, cost=cost, replication=config.replication)
        #: Monotone per-job salt for adaptive indexing offers: repeating the same query gives
        #: each run a fresh set of offered blocks, so low offer rates still converge.
        self._adaptive_salt = 0
        #: The adaptive-index lifecycle manager (eviction + knob auto-tuning); ``None`` unless
        #: the config enables at least one lifecycle feature, so plain deployments carry no
        #: lifecycle machinery at all.
        self.lifecycle: Optional[AdaptiveLifecycleManager] = (
            AdaptiveLifecycleManager.from_config(config)
        )
        if config.persistence != "off":
            from repro.persist import create_backend

            # Attached on the Hdfs facade so every mutation-point hook (upload, adaptive
            # commit, eviction, balancer) can reach the journal without new plumbing.
            self.hdfs.persist = create_backend(config.persistence, config.persistence_dir)

    # ------------------------------------------------------------------ upload
    def _upload_pipeline(self) -> HailUploadPipeline:
        return HailUploadPipeline(self.hdfs, self.cost, self.config)

    def num_indexes(self) -> int:
        return self.config.num_indexes

    # ------------------------------------------------------------------ queries
    def _make_jobconf(self, query, path: str, schema: Schema, emit) -> JobConf:
        jobconf = scan_job(
            f"hail-{query.name}", path, HailInputFormat(self.config),
            projected_rows, projected_row, emit,
        )
        jobconf.properties[JOB_PROPERTY] = self._annotation_for(query)
        if self.config.zone_maps:
            jobconf.properties[ZONE_MAP_PROPERTY] = True
        if self.config.index_aware_scheduling:
            jobconf.properties[SCHEDULING_PROPERTY] = True
        if self.config.adaptive_indexing:
            context = AdaptiveJobContext.from_config(self.config, salt=self._adaptive_salt)
            if self.lifecycle is not None:
                tuner = self.lifecycle.tuner
                if tuner is not None:
                    # The feedback controller's current knobs replace the static config values,
                    # and the executor measures counterfactual scan savings to feed its ledger.
                    context.offer_rate = tuner.offer_rate
                    context.budget = tuner.budget
                    context.measure_savings = True
                    if tuner.per_attribute:
                        # Snapshot of the split ledgers' live per-attribute rates; unseen
                        # attributes keep falling back to the scalar rate above.
                        context.attribute_offer_rates = tuner.attribute_rates()
                jobconf.properties[LIFECYCLE_PROPERTY] = self.lifecycle
            jobconf.properties[ADAPTIVE_PROPERTY] = context
            self._adaptive_salt += 1
            if self.hdfs.persist is not None:
                # The salt decides which blocks future jobs offer builds on; journaling it
                # per job is what makes post-restore offer draws bit-identical to an
                # uninterrupted run.
                self.hdfs.persist.sync_control({"adaptive_salt": self._adaptive_salt})
        return jobconf

    def _planner(self) -> PhysicalPlanner:
        """Planner matching this deployment's jobs: zone-map skipping follows the config."""
        return PhysicalPlanner(self.hdfs, zone_maps=self.config.zone_maps)

    def concurrency_policy(self):
        """Batch drains interleave jobs once ``config.concurrency`` admits more than one.

        At the default ``max_concurrent_jobs=1`` batches run back-to-back, one single-job map
        phase after another (which is what the pinned figure goldens measure).
        """
        return self.config.concurrency

    # ------------------------------------------------------------------ introspection
    def index_coverage(self, path: str, attribute: str) -> float:
        """Fraction of blocks with an alive replica indexed on ``attribute``."""
        return index_coverage(self.hdfs.namenode, path, attribute)

    def replica_distribution(self, path: str) -> dict[str, int]:
        """Histogram of replicas per indexed attribute for an uploaded dataset."""
        return replica_distribution(self.hdfs.namenode, path)

    def adaptive_replica_count(self, path: str) -> int:
        """Number of replicas whose index was built adaptively (lazily) for ``path``."""
        return adaptive_replica_count(self.hdfs.namenode, path)

    def adaptive_replica_bytes(self, path: str) -> int:
        """Total on-disk bytes of ``path``'s adaptive replicas (the eviction ceiling's target)."""
        return adaptive_replica_bytes(self.hdfs.namenode, path)
