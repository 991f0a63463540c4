"""HailInputFormat and the HailSplitting policy (Section 4.3).

Stock Hadoop creates one input split per HDFS block, so a 200 GB input means 3,200 map tasks —
each paying the framework's multi-second scheduling overhead, which dwarfs the milliseconds an
index scan actually needs (Figures 6(c) and 7(c)).  HailSplitting instead

1. plans the file with the :class:`~repro.engine.planner.PhysicalPlanner`: per block, one
   ``getHostsWithIndex`` walk names the replica whose clustered index matches the job's filter
   attribute and every alive indexed host (``InputSplit.index_locations``),
2. clusters the blocks of the input by that datanode (locality clustering), and
3. creates, per datanode collection, as many input splits as the TaskTracker has map slots,
   assigning the collection's blocks round-robin to them.

The result is a handful of map tasks (e.g. 20 instead of 3,200) that each index-scan many
blocks, which is what produces the Figure 9 speedups.  Jobs without a usable index keep the
default one-split-per-block policy, so failover characteristics of scan jobs are unchanged.

Each block is planned once per query shape and layout write to that block, not once per job:
a deployment's :class:`SplitMemo` keeps the block plans and splits of each shape (path, schema,
filter attributes, whether there is a projection, the predicate when zone maps are on, and the
split settings) for one namenode and one set of alive nodes.  The namenode stamps every block
with the :attr:`~repro.hdfs.namenode.NameNode.epoch` of its last layout write (allocation,
replica install or removal, eviction tombstone); a block's plan reads only that block's
``Dir_block``/``Dir_rep`` entries and tombstones and the alive set, so a kept plan holds while its
block's stamp stands.  A repeated query on an unchanged deployment gets the stored plans under
its own bound query and asks the namenode nothing; after an adaptive commit, an eviction or an
upload only the blocks it wrote are planned again, and the splits are cut again from the kept
plans.  A restore (a new namenode), a node kill or a revival starts a new memo.  The simulated
split-phase charge (:meth:`HailInputFormat.split_phase_cost`) is the same either way.

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
(:meth:`HailInputFormat.finish_run`: commit the staged builds, run the lifecycle pass and
journal the control state it learned).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.cluster.costmodel import CostModel
from repro.engine.access_path import BlockPlan
from repro.engine.adaptive import AdaptiveJobContext, commit_adaptive_builds
from repro.engine.lifecycle import AdaptiveLifecycleManager
from repro.engine.planner import BoundQuery, PhysicalPlanner, QueryPlan
from repro.hail.config import HailConfig
from repro.hail.record_reader import HailRecordReader
from repro.hdfs.block import BlockLocation
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.input_format import InputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.job_tracker import ScheduleOutcome
from repro.mapreduce.record_reader import RecordReader
from repro.mapreduce.split import InputSplit
from repro.persist.state import capture_lifecycle_control
from repro.query.annotation import resolve_annotation


#: Safety cap on the query shapes one layout keeps.  A workload repeats a handful of shapes;
#: the cap only bounds the memo under a stream of distinct zone-mapped predicates.
SPLIT_MEMO_CAP = 256


class SplitShape:
    """One query shape's split phase on one layout: per block, the plan and ``BlockLocation``
    made at the block's stamp (:meth:`~repro.hdfs.namenode.NameNode.block_epoch`), and the
    file's plans and splits cut from them, current at namenode epoch :attr:`epoch`."""

    __slots__ = ("epoch", "blocks", "block_plans", "splits")

    def __init__(self) -> None:
        self.epoch = -1
        #: block id -> ``(stamp, location, plan)``.
        self.blocks: dict[int, tuple[int, BlockLocation, BlockPlan]] = {}
        self.block_plans: tuple[BlockPlan, ...] = ()
        self.splits: tuple[InputSplit, ...] = ()


class SplitMemo:
    """The split phase's block plans and splits per query shape, for one layout of a deployment.

    ``HailSystem`` owns one and hands it to every job's :class:`HailInputFormat`.  A shape's
    plans hold while the namenode object and the set of alive nodes are the ones they were
    made under; a change of either empties the memo.  Within one, a block's plan is kept while
    the block's stamp stands: a layout write to one block re-plans that block only.  The
    stored plans are shared, never executed: a reader copies a plan before running it and
    re-plans a block whose pinned replica died or changed, so a stale entry can cost a
    re-plan, never a row.  A shape keeps one plan per block of its file, so an entry a write
    made stale is replaced when its shape is next planned.
    """

    def __init__(self) -> None:
        self._layout: Optional[tuple] = None
        self._shapes: dict[tuple, SplitShape] = {}

    def shape(self, hdfs: Hdfs, key: tuple) -> SplitShape:
        """The split phase stored under ``key`` for ``hdfs``'s namenode and alive nodes (new
        and empty on first use, the oldest shape making room at the cap); the memo is emptied
        first when the namenode or the alive set changed since the last call."""
        alive = tuple(node.node_id for node in hdfs.cluster if node.is_alive)
        layout = (hdfs.namenode, alive)
        if layout != self._layout:
            self._layout = layout
            self._shapes = {}
        shape = self._shapes.get(key)
        if shape is None:
            if len(self._shapes) >= SPLIT_MEMO_CAP:
                del self._shapes[next(iter(self._shapes))]
            shape = self._shapes[key] = SplitShape()
        return shape


class HailInputFormat(InputFormat):
    """Input format routing map tasks to indexed replicas, with the HailSplitting policy.

    ``adaptive`` is the job's adaptive-indexing context, required exactly when
    ``config.adaptive_indexing`` is on (``HailSystem`` builds one per job, with a fresh
    salt); ``lifecycle`` is the deployment's lifecycle manager, or ``None``; ``memo`` is the
    deployment's :class:`SplitMemo` (by default the format keeps one of its own, which only
    its own re-runs share).
    """

    def __init__(
        self,
        config: Optional[HailConfig] = None,
        adaptive: Optional[AdaptiveJobContext] = None,
        lifecycle: Optional[AdaptiveLifecycleManager] = None,
        memo: Optional[SplitMemo] = None,
    ) -> None:
        self.config = config if config is not None else HailConfig()
        if self.config.adaptive_indexing and adaptive is None:
            raise ValueError("adaptive_indexing needs the job's AdaptiveJobContext")
        self.adaptive = adaptive
        self.lifecycle = lifecycle
        self.memo = memo if memo is not None else SplitMemo()
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
            if hdfs.persist is not None:
                # Journal what the pass learned — tuner ledger and balancer demand — so a
                # restored deployment's feedback loops resume instead of re-learning.
                hdfs.persist.sync_control(capture_lifecycle_control(self.lifecycle))

    # ------------------------------------------------------------------ splits
    def get_splits(self, hdfs: Hdfs, jobconf: JobConf, cost: CostModel) -> list[InputSplit]:
        """Plan the file and cut its splits from that plan (HailSplitting or one per block).

        The query is bound once per job.  The :attr:`memo` keeps this query shape's block
        plans: only a block that is new to the file or whose stamp moved since its plan was
        made is planned here (with its ``BlockLocation``), and the splits are cut again from
        the kept plans when any was.  The plan is kept as :attr:`plan` (carrying this job's
        bound query) and handed to every record reader of the job.  Every block lands in a
        split, ``ZONE_MAP_SKIP`` plans included: their readers verify the skip against the
        payload before they trust the registered synopses.
        """
        path = jobconf.input_path
        planner = PhysicalPlanner(hdfs, zone_maps=self.config.zone_maps)
        bound = planner.query_frame(path, resolve_annotation(jobconf)).bound
        shape = self.memo.shape(hdfs, self._shape(path, bound, cost))
        namenode = hdfs.namenode
        if shape.epoch != namenode.epoch:
            stamps = {
                block_id: namenode.block_epoch(block_id)
                for block_id in namenode.file_blocks(path)
            }
            kept = shape.blocks
            stale = [
                block_id
                for block_id, stamp in stamps.items()
                if block_id not in kept or kept[block_id][0] != stamp
            ]
            if stale:
                for block_id, plan in zip(stale, planner.plan_blocks(stale, bound)):
                    kept[block_id] = (stamps[block_id], namenode.block_location(block_id), plan)
                blocks = [kept[block_id][1:] for block_id in stamps]
                shape.block_plans = tuple(plan for _, plan in blocks)
                if self.config.splitting_policy and any(plan.index_hosts for _, plan in blocks):
                    shape.splits = tuple(self._hail_splitting(jobconf, cost, blocks))
                else:
                    shape.splits = tuple(self._default_splitting(jobconf, blocks))
            shape.epoch = namenode.epoch
        self.plan = QueryPlan(path=path, bound=bound, block_plans=list(shape.block_plans))
        return list(shape.splits)

    def _shape(self, path: str, bound: BoundQuery, cost: CostModel) -> tuple:
        """The memo key: exactly what block planning and the two splitting policies read
        besides the layout.

        Without zone maps a plan reads the query only through its filter attributes and
        whether it projects, so queries differing in operands share one entry; with zone maps
        the predicate decides the skips and joins the key.
        """
        zone_maps = self.config.zone_maps
        return (
            path,
            bound.schema,
            bound.filter_attributes,
            bound.projection is None,
            bound.predicate if zone_maps else None,
            zone_maps,
            self.config.splitting_policy,
            cost.params.map_slots_per_node,
        )

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
            split, hdfs, cost, node_id, self.plan,
            zone_maps=self.config.zone_maps, adaptive=self.adaptive,
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
