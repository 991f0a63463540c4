"""HAIL — Hadoop Aggressive Indexing Library (the paper's contribution).

HAIL changes the HDFS upload pipeline so that each physical replica of a block is stored in a
different sort order with a different clustered index (created in main memory while the block is
uploaded), extends the namenode with a per-replica directory, and changes the MapReduce pipeline
(input format, splitting policy, record reader, scheduling) to route map tasks to the replica
whose index matches the job's filter predicate.

Public entry point: :class:`~repro.hail.system.HailSystem`.
"""

from repro.hail.config import HailConfig
from repro.hail.predicate import Comparison, Operator, Predicate
from repro.hail.annotation import HailQuery, hail_query, resolve_annotation
from repro.hail.record import HailRecord
from repro.hail.index import HailIndex
from repro.hail.sortindex import sort_permutation
from repro.hail.hail_block import HailBlock
from repro.hail.replica_info import HailBlockReplicaInfo
from repro.hail.upload import HailUploadPipeline
from repro.hail.record_reader import HailRecordReader
from repro.hail.input_format import HailInputFormat
from repro.hail.scheduler import (
    adaptive_replica_count,
    check_dir_rep_consistency,
    index_coverage,
)
from repro.hail.system import HailSystem

__all__ = [
    "HailConfig",
    "Comparison",
    "Operator",
    "Predicate",
    "HailQuery",
    "hail_query",
    "resolve_annotation",
    "HailRecord",
    "HailIndex",
    "sort_permutation",
    "HailBlock",
    "HailBlockReplicaInfo",
    "HailUploadPipeline",
    "HailRecordReader",
    "HailInputFormat",
    "adaptive_replica_count",
    "check_dir_rep_consistency",
    "index_coverage",
    "HailSystem",
]
