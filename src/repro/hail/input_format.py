"""HailInputFormat and the HailSplitting policy (Section 4.3).

Stock Hadoop creates one input split per HDFS block, so a 200 GB input means 3,200 map tasks —
each paying the framework's multi-second scheduling overhead, which dwarfs the milliseconds an
index scan actually needs (Figures 6(c) and 7(c)).  HailSplitting instead

1. plans the file once with the :class:`~repro.engine.planner.PhysicalPlanner`: per block, one
   ``getHostsWithIndex`` walk names the replica whose clustered index matches the job's filter
   attribute and every alive indexed host (``InputSplit.index_locations``),
2. clusters the blocks of the input by that datanode (locality clustering), and
3. creates, per datanode collection, as many input splits as the TaskTracker has map slots,
   assigning the collection's blocks round-robin to them.

The result is a handful of map tasks (e.g. 20 instead of 3,200) that each index-scan many
blocks, which is what produces the Figure 9 speedups.  Jobs without a usable index keep the
default one-split-per-block policy, so failover characteristics of scan jobs are unchanged.

That plan is the one the job executes: the format keeps it (:attr:`HailInputFormat.plan`) and
hands it to every :class:`~repro.hail.record_reader.HailRecordReader`, which re-plans a block
only when the split did not pin it, its pinned host died, or its pinned replica's ``Dir_rep``
entry changed since.  ``HailSystem.explain`` renders the same plan: both use the deployment's
``zone_maps``.  Every split-phase plan is carried into a split, ``ZONE_MAP_SKIP`` blocks
included, so a block is skipped only inside its map task, after the reader has checked the
replica it opened.

The format is also the one object holding a job's HAIL state, so the rest of Hadoop needs no
HAIL knowledge: the deployment's :class:`~repro.hail.config.HailConfig` (zone maps, split
policy, index-aware scheduling), the job's
:class:`~repro.engine.adaptive.AdaptiveJobContext` (handed to every record reader) and the
deployment's :class:`~repro.engine.lifecycle.AdaptiveLifecycleManager`.  The runner starts
each run (:meth:`HailInputFormat.start_run`) and finishes each measured one
(:meth:`HailInputFormat.finish_run`: commit the staged builds, then the lifecycle pass).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.cluster.costmodel import CostModel
from repro.engine.adaptive import AdaptiveJobContext, commit_adaptive_builds
from repro.engine.lifecycle import AdaptiveLifecycleManager
from repro.engine.planner import PhysicalPlanner, QueryPlan
from repro.hail.annotation import resolve_annotation
from repro.hail.config import HailConfig
from repro.hail.record_reader import HailRecordReader
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.input_format import InputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.job_tracker import ScheduleOutcome
from repro.mapreduce.record_reader import RecordReader
from repro.mapreduce.split import InputSplit


class HailInputFormat(InputFormat):
    """Input format routing map tasks to indexed replicas, with the HailSplitting policy.

    ``adaptive`` is the job's adaptive-indexing context, required exactly when
    ``config.adaptive_indexing`` is on (``HailSystem`` builds one per job, with a fresh
    salt); ``lifecycle`` is the deployment's lifecycle manager, or ``None``.
    """

    def __init__(
        self,
        config: Optional[HailConfig] = None,
        adaptive: Optional[AdaptiveJobContext] = None,
        lifecycle: Optional[AdaptiveLifecycleManager] = None,
    ) -> None:
        self.config = config if config is not None else HailConfig()
        if self.config.adaptive_indexing and adaptive is None:
            raise ValueError("adaptive_indexing needs the job's AdaptiveJobContext")
        self.adaptive = adaptive
        self.lifecycle = lifecycle
        self.index_aware_scheduling = self.config.index_aware_scheduling
        #: The latest :meth:`get_splits` plan, which the job's record readers execute.
        self.plan: Optional[QueryPlan] = None

    # ------------------------------------------------------------------ the run
    def start_run(self, measured: bool) -> None:
        """Reset the adaptive context's per-run budget and decisions for a (re-)run.

        The failure runner's baseline probe and its measured run then offer the same builds;
        the probe (``measured=False``) also leaves the namenode's index-usage statistics alone,
        which would otherwise count every use twice and skew the eviction order.
        """
        if self.adaptive is not None:
            self.adaptive.record_usage = measured
            self.adaptive.begin_run()

    def finish_run(
        self, hdfs: Hdfs, cost: CostModel, outcome: ScheduleOutcome, counters: Counters,
        tenant: Optional[str],
    ) -> None:
        """Commit the builds the surviving attempts staged, then run the lifecycle pass.

        Runs while a killed node is still dead, so builds targeting it are dropped and
        ``Dir_rep`` never ends up half-registered (deduplication of rescheduled and
        speculative attempts happens in :func:`~repro.engine.adaptive.commit_adaptive_builds`).
        The lifecycle manager then observes the job — after the commit, so the tuner sees what
        reached the namenode and eviction acts on post-commit disk usage.
        """
        scheduled = outcome.scheduled
        if any(attempt.result.adaptive_builds for attempt in scheduled):
            for build in commit_adaptive_builds(hdfs, scheduled).committed:
                # Sliced per attribute: the placement balancer's demand and session stats.
                counters.increment(Counters.ADAPTIVE_INDEXES_COMMITTED, attribute=build.attribute)
                counters.increment(
                    Counters.ADAPTIVE_BUILD_SECONDS, build.build_seconds, build.attribute
                )
        if self.lifecycle is not None:
            # "Useful work" for the budget tuner: the surviving attempts' RecordReader time
            # minus every build those same attempts staged (not just the committed subset —
            # builds dropped at commit time still spent their seconds reading).
            staged = [build for attempt in scheduled for build in attempt.result.adaptive_builds]
            staged_build_s = sum(build.build_seconds for build in staged)
            reader_s = sum(attempt.result.record_reader_s for attempt in scheduled)
            self.lifecycle.after_job(hdfs, counters, reader_s - staged_build_s, tenant, cost)

    # ------------------------------------------------------------------ splits
    def get_splits(self, hdfs: Hdfs, jobconf: JobConf, cost: CostModel) -> list[InputSplit]:
        """Plan the file once and cut its splits from that plan (HailSplitting or one per block).

        The plan is kept as :attr:`plan` and handed to every record reader of the job.  Every
        block lands in a split, ``ZONE_MAP_SKIP`` plans included: their readers verify the
        skip against the payload before they trust the registered synopses.
        """
        planner = PhysicalPlanner(hdfs, zone_maps=self.config.zone_maps)
        self.plan = planner.plan_query(jobconf.input_path, resolve_annotation(jobconf))
        locations = hdfs.namenode.block_locations(jobconf.input_path, alive_only=True)
        blocks = list(zip(locations, self.plan.block_plans))
        if self.config.splitting_policy and any(plan.index_hosts for _, plan in blocks):
            return self._hail_splitting(jobconf, cost, blocks)
        return self._default_splitting(jobconf, blocks)

    def create_record_reader(
        self,
        split: InputSplit,
        hdfs: Hdfs,
        jobconf: JobConf,
        cost: CostModel,
        node_id: int,
    ) -> RecordReader:
        """A :class:`~repro.hail.record_reader.HailRecordReader` over ``split`` on ``node_id``."""
        return HailRecordReader(
            split, hdfs, cost, node_id, jobconf,
            zone_maps=self.config.zone_maps, adaptive=self.adaptive, plan=self.plan,
        )

    def split_phase_cost(self, hdfs: Hdfs, jobconf: JobConf, cost: CostModel, num_blocks: int) -> float:
        """HAIL keeps index metadata in the namenode, so no block headers are read here."""
        return cost.split_phase(num_blocks, reads_block_headers=False)

    # ------------------------------------------------------------------ policies
    # ``blocks`` pairs each BlockLocation with its plan.  A block with an indexed replica is
    # pinned to the replica its plan reads (``preferred_replicas``); its reader executes that
    # plan unless the replica died or changed since.
    @staticmethod
    def _default_splitting(jobconf: JobConf, blocks: list) -> list[InputSplit]:
        """One split per block; indexed replicas still steer locations and replica choice."""
        splits = []
        for split_id, (location, plan) in enumerate(blocks):
            hosts = location.get_hosts()
            preferred: dict[int, int] = {}
            if plan.index_hosts:
                preferred[location.block_id] = plan.datanode_id
                # Put the indexed replica's datanode first so the scheduler favours it.
                hosts = (plan.datanode_id,) + tuple(h for h in hosts if h != plan.datanode_id)
            splits.append(
                InputSplit(
                    split_id=split_id,
                    path=jobconf.input_path,
                    block_ids=(location.block_id,),
                    locations=tuple(hosts),
                    length_bytes=location.length_bytes,
                    preferred_replicas=preferred,
                    index_locations=plan.index_hosts,
                )
            )
        return splits

    @staticmethod
    def _hail_splitting(jobconf: JobConf, cost: CostModel, blocks: list) -> list[InputSplit]:
        """Cluster blocks by planned datanode; emit ``map_slots`` splits per datanode group.

        A block's planned datanode is its indexed replica's or — without a matching index —
        its first alive replica's, so index-less blocks still ride along locally.
        """
        groups: dict[int, list] = defaultdict(list)
        for block in blocks:
            groups[block[1].datanode_id].append(block)

        slots_per_node = max(1, cost.params.map_slots_per_node)
        splits: list[InputSplit] = []
        for datanode_id in sorted(groups):
            group = groups[datanode_id]
            num_splits = min(slots_per_node, len(group))
            for bucket in (group[k::num_splits] for k in range(num_splits)):
                block_ids = tuple(location.block_id for location, _ in bucket)
                splits.append(
                    InputSplit(
                        split_id=len(splits),
                        path=jobconf.input_path,
                        block_ids=block_ids,
                        locations=(datanode_id,) if datanode_id >= 0 else (),
                        length_bytes=sum(location.length_bytes for location, _ in bucket),
                        preferred_replicas=dict.fromkeys(block_ids, datanode_id),
                        index_locations=tuple(
                            dict.fromkeys(host for _, plan in bucket for host in plan.index_hosts)
                        ),
                    )
                )
        return splits
