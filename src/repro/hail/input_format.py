"""HailInputFormat and the HailSplitting policy (Section 4.3).

Stock Hadoop creates one input split per HDFS block, so a 200 GB input means 3,200 map tasks —
each paying the framework's multi-second scheduling overhead, which dwarfs the milliseconds an
index scan actually needs (Figures 6(c) and 7(c)).  HailSplitting instead

1. asks the :class:`~repro.engine.planner.PhysicalPlanner` which datanode holds, per block, the
   replica whose clustered index matches the job's filter attribute (``getHostsWithIndex``),
2. clusters the blocks of the input by that datanode (locality clustering), and
3. creates, per datanode collection, as many input splits as the TaskTracker has map slots,
   assigning the collection's blocks round-robin to them.

The result is a handful of map tasks (e.g. 20 instead of 3,200) that each index-scan many
blocks, which is what produces the Figure 9 speedups.  Jobs without a usable index keep the
default one-split-per-block policy, so failover characteristics of scan jobs are unchanged.

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
from repro.engine.access_path import AccessPath
from repro.engine.adaptive import AdaptiveJobContext, commit_adaptive_builds
from repro.engine.lifecycle import AdaptiveLifecycleManager
from repro.engine.planner import PhysicalPlanner
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
                # Sliced per attribute: what the split tuner ledgers steer the offer rates by.
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
        """Compute the job's input splits (HailSplitting or one-per-block, index-routed)."""
        locations = hdfs.namenode.block_locations(jobconf.input_path, alive_only=True)
        if not locations:
            return []

        # One planner pass serves both the replica choices and (with ``zone_split_pruning``)
        # the split-phase pruning: a block that is not skipped plans identically with zone
        # maps on or off.
        planner = PhysicalPlanner(hdfs, zone_maps=self.config.zone_split_pruning)
        query_plan = planner.plan_query(jobconf.input_path, resolve_annotation(jobconf))
        filter_attributes = query_plan.filter_attributes
        block_choices: dict[int, Optional[tuple[int, str]]] = {}
        skippable: set[int] = set()
        for block_plan in query_plan.block_plans:
            if block_plan.access_path is AccessPath.ZONE_MAP_SKIP:
                skippable.add(block_plan.block_id)
                continue
            choice = None
            if block_plan.uses_index:
                choice = (block_plan.datanode_id, block_plan.attribute)
            block_choices[block_plan.block_id] = choice
        if skippable:
            locations = self._prune_skippable_blocks(locations, skippable)
            if not locations:
                return []
        index_hosts = self._index_hosts(hdfs, locations, filter_attributes)

        index_scan_possible = any(choice is not None for choice in block_choices.values())
        if self.config.splitting_policy and filter_attributes and index_scan_possible:
            return self._hail_splitting(
                hdfs, jobconf, cost, locations, block_choices, index_hosts
            )
        return self._default_splitting(jobconf, locations, block_choices, index_hosts)

    @staticmethod
    def _prune_skippable_blocks(locations, skippable: set[int]) -> list:
        """Zone-aware split pruning: drop blocks the ``Dir_rep`` synopses prove empty.

        Blocks the zone-map-enabled planner pass classified as ``ZONE_MAP_SKIP`` never become
        part of any input split, so the JobTracker schedules no map task for them at all —
        the per-task overhead is saved on top of the data bytes.  The JobClient reports the
        blocks no split covers (``SplitPlan.skipped_blocks``) and the runner counts them into
        ``ZONE_MAP_SKIPPED_BLOCKS``/``ZONE_MAP_PRUNED_BYTES``.

        Split-phase pruning trusts the registered synopses without the executor's payload
        re-verification (there is no task left to verify in); the synopses are written from
        the payload itself at replica-registration time, so this stays a metadata-consistency
        trade the ``zone_split_pruning`` knob makes explicit.
        """
        return [location for location in locations if location.block_id not in skippable]

    @staticmethod
    def _index_hosts(
        hdfs: Hdfs, locations, filter_attributes: tuple[str, ...]
    ) -> dict[int, tuple[int, ...]]:
        """Per block: every alive datanode indexed on *any* of the query's filter attributes.

        This is the scheduler-facing superset of the planner's single replica choice — the
        index-aware JobTracker can place a task well on any of these nodes, so splits carry
        all of them (``InputSplit.index_locations``), not just the replica the reader will
        prefer to open.
        """
        if not filter_attributes:
            return {}
        namenode = hdfs.namenode
        hosts_by_block: dict[int, tuple[int, ...]] = {}
        for location in locations:
            hosts: list[int] = []
            for attribute in filter_attributes:
                for host in namenode.hosts_with_index(
                    location.block_id, attribute, alive_only=True
                ):
                    if host not in hosts:
                        hosts.append(host)
            if hosts:
                hosts_by_block[location.block_id] = tuple(hosts)
        return hosts_by_block

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
            zone_maps=self.config.zone_maps, adaptive=self.adaptive,
        )

    def split_phase_cost(self, hdfs: Hdfs, jobconf: JobConf, cost: CostModel, num_blocks: int) -> float:
        """HAIL keeps index metadata in the namenode, so no block headers are read here."""
        return cost.split_phase(num_blocks, reads_block_headers=False)

    # ------------------------------------------------------------------ policies
    def _default_splitting(
        self,
        jobconf: JobConf,
        locations,
        block_choices: dict[int, Optional[tuple[int, str]]],
        index_hosts: Optional[dict[int, tuple[int, ...]]] = None,
    ) -> list[InputSplit]:
        """One split per block; indexed replicas still steer locations and replica choice."""
        index_hosts = index_hosts or {}
        splits = []
        for i, location in enumerate(locations):
            choice = block_choices.get(location.block_id)
            preferred: dict[int, int] = {}
            hosts = list(location.get_hosts())
            if choice is not None:
                datanode_id, _attribute = choice
                preferred[location.block_id] = datanode_id
                # Put the indexed replica's datanode first so the scheduler favours it.
                if datanode_id in hosts:
                    hosts.remove(datanode_id)
                hosts.insert(0, datanode_id)
            splits.append(
                InputSplit(
                    split_id=i,
                    path=jobconf.input_path,
                    block_ids=(location.block_id,),
                    locations=tuple(hosts),
                    length_bytes=location.length_bytes,
                    preferred_replicas=preferred,
                    index_locations=index_hosts.get(location.block_id, ()),
                )
            )
        return splits

    def _hail_splitting(
        self,
        hdfs: Hdfs,
        jobconf: JobConf,
        cost: CostModel,
        locations,
        block_choices: dict[int, Optional[tuple[int, str]]],
        index_hosts: Optional[dict[int, tuple[int, ...]]] = None,
    ) -> list[InputSplit]:
        """Cluster blocks by indexed datanode; emit ``map_slots`` splits per datanode group."""
        index_hosts = index_hosts or {}
        groups: dict[int, list] = defaultdict(list)
        for location in locations:
            choice = block_choices.get(location.block_id)
            if choice is not None:
                datanode_id = choice[0]
            else:
                # Blocks without a matching index fall back to scanning a local replica; group
                # them with their first alive host so they still ride along locally.
                hosts = location.get_hosts()
                datanode_id = hosts[0] if hosts else -1
            groups[datanode_id].append(location)

        slots_per_node = max(1, cost.params.map_slots_per_node)
        splits: list[InputSplit] = []
        split_id = 0
        for datanode_id in sorted(groups):
            group = groups[datanode_id]
            num_splits = min(slots_per_node, len(group))
            buckets: list[list] = [[] for _ in range(num_splits)]
            for position, location in enumerate(group):
                buckets[position % num_splits].append(location)
            for bucket in buckets:
                if not bucket:
                    continue
                preferred = {}
                bucket_index_hosts: list[int] = []
                for location in bucket:
                    choice = block_choices.get(location.block_id)
                    preferred[location.block_id] = (
                        choice[0] if choice is not None else datanode_id
                    )
                    for host in index_hosts.get(location.block_id, ()):
                        if host not in bucket_index_hosts:
                            bucket_index_hosts.append(host)
                splits.append(
                    InputSplit(
                        split_id=split_id,
                        path=jobconf.input_path,
                        block_ids=tuple(location.block_id for location in bucket),
                        locations=(datanode_id,) if datanode_id >= 0 else (),
                        length_bytes=sum(location.length_bytes for location in bucket),
                        preferred_replicas=preferred,
                        index_locations=tuple(bucket_index_hosts),
                    )
                )
                split_id += 1
        return splits
