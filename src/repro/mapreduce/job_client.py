"""The JobClient: split computation at job submission time (Section 4.2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.costmodel import CostModel
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.input_format import InputFormat, TextInputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.split import InputSplit


@dataclass
class SplitPlan:
    """Result of the split phase: the splits plus the time the phase itself took."""

    splits: list[InputSplit]
    num_blocks: int
    split_phase_s: float


class JobClient:
    """Copies job resources, fetches block metadata and computes input splits."""

    def __init__(self, hdfs: Hdfs, cost: CostModel) -> None:
        self.hdfs = hdfs
        self.cost = cost

    def compute_splits(self, jobconf: JobConf) -> SplitPlan:
        """Run the split phase for ``jobconf`` using its input format UDF."""
        input_format = jobconf.input_format
        if input_format is None:
            input_format = TextInputFormat()
            jobconf.input_format = input_format
        if not isinstance(input_format, InputFormat):
            raise TypeError(
                f"jobconf.input_format must be an InputFormat, got {type(input_format)!r}"
            )
        num_blocks = len(self.hdfs.namenode.file_blocks(jobconf.input_path))
        splits = input_format.get_splits(self.hdfs, jobconf, self.cost)
        split_phase_s = input_format.split_phase_cost(self.hdfs, jobconf, self.cost, num_blocks)
        return SplitPlan(splits, num_blocks, split_phase_s)
