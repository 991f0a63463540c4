"""Input formats.

The input format is the user-defined function (UDF) that computes input splits in the JobClient
and creates record readers in the map tasks.  Keeping both behind a UDF is what lets HAIL change
the splitting policy and the reader without touching the rest of Hadoop (Section 4.3).  It is
also where a job's query is bound: every format's split phase binds the job's ``@HailQuery`` to
the file's schema once and keeps the job's :class:`~repro.engine.planner.QueryPlan`
(:attr:`InputFormat.plan`), which its readers execute and the runner frames the executed plan
from (``JobResult.plan``).  And it is the one object that carries a job's HAIL state: the
format holds what its readers need, asks the JobTracker for index-aware scheduling
(:attr:`InputFormat.index_aware_scheduling`), and publishes what its runs leave behind
(:meth:`InputFormat.finish_run`) — the runner and the JobTracker only ever call the three
defaults below, which stock formats leave alone.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.cluster.costmodel import CostModel
from repro.engine.planner import PhysicalPlanner, QueryPlan
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf
from repro.mapreduce.job_tracker import ScheduleOutcome
from repro.mapreduce.record_reader import RecordReader, TextRecordReader
from repro.mapreduce.split import InputSplit
from repro.query.annotation import resolve_annotation


class InputFormat(abc.ABC):
    """Computes input splits and creates record readers."""

    #: Whether the JobTracker should launch this format's tasks on a node holding an indexed
    #: replica (``InputSplit.index_locations``) before plain data locality, and count every
    #: launch into the ``SCHED_*`` tiers.  Stock Hadoop does not.
    index_aware_scheduling: bool = False
    #: The latest :meth:`get_splits` plan: the job's query bound once, plus the block plans the
    #: split phase made (none here; HAIL's plans every block).  ``None`` until then, and for
    #: a format whose split phase keeps none.
    plan: Optional[QueryPlan] = None

    def get_splits(self, hdfs: Hdfs, jobconf: JobConf, cost: CostModel) -> list[InputSplit]:
        """Logical division of the job's input into per-map-task splits.

        One split per HDFS block, located at the block's alive replica hosts, as Hadoop's
        ``FileInputFormat`` does; HAIL overrides it with HailSplitting.  The job's query is
        bound here, once, into :attr:`plan`'s frame.
        """
        planner = PhysicalPlanner(hdfs)
        self.plan = planner.query_frame(jobconf.input_path, resolve_annotation(jobconf))
        locations = hdfs.namenode.block_locations(jobconf.input_path, alive_only=True)
        return [
            InputSplit(
                split_id=i,
                path=jobconf.input_path,
                block_ids=(location.block_id,),
                locations=location.get_hosts(),
                length_bytes=location.length_bytes,
            )
            for i, location in enumerate(locations)
        ]

    @abc.abstractmethod
    def create_record_reader(
        self,
        split: InputSplit,
        hdfs: Hdfs,
        jobconf: JobConf,
        cost: CostModel,
        node_id: int,
    ) -> RecordReader:
        """Record reader for one split, executing on ``node_id``."""

    def split_phase_cost(self, hdfs: Hdfs, jobconf: JobConf, cost: CostModel, num_blocks: int) -> float:
        """Extra JobClient-side cost of computing splits.

        Stock Hadoop and HAIL only consult namenode metadata; Hadoop++ must read a header from
        every block, which it pays here (Section 6.4.1 explains why HAIL starts earlier).
        """
        return cost.split_phase(num_blocks, reads_block_headers=False)

    def start_run(self, measured: bool) -> None:
        """Called once per simulated map phase, after the split phase and before any task.

        ``measured`` is ``False`` only for the failure runner's undisturbed probe, whose
        attempts are discarded: a format must then publish nothing.  Stock formats keep no
        per-run state.
        """

    def finish_run(
        self, hdfs: Hdfs, cost: CostModel, outcome: ScheduleOutcome, counters: Counters,
        tenant: Optional[str],
    ) -> None:
        """Called after the reduce phase of a *measured* run, with its accepted attempts.

        The place to publish what the run staged (and count it into ``counters``) while a
        node the run lost is still dead.  ``tenant`` is the submitting tenant of a batched
        job, ``None`` for a serial one.  Stock formats stage nothing.
        """


class TextInputFormat(InputFormat):
    """Stock Hadoop input format: one split per block, full-scan text record reader."""

    def create_record_reader(
        self,
        split: InputSplit,
        hdfs: Hdfs,
        jobconf: JobConf,
        cost: CostModel,
        node_id: int,
    ) -> RecordReader:
        """A full-scan :class:`~repro.mapreduce.record_reader.TextRecordReader` over ``split``."""
        return TextRecordReader(split, hdfs, cost, node_id)
