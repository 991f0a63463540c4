"""A functional HDFS substrate.

This package reimplements, at laptop scale, the parts of HDFS that HAIL modifies: the central
namenode with its block directory, datanodes storing physical replicas, chunk checksums and
packet counts, and the pipelined upload path with its ACK chain (Section 3.2 of the paper
describes both the stock pipeline and the HAIL changes in detail).

The stock upload pipeline lives in :mod:`repro.hdfs.pipeline`; the HAIL upload pipeline builds
on the same namenode/datanode/checksum primitives from :mod:`repro.hail.upload`.
"""

from repro.hdfs.errors import HdfsError, BlockNotFoundError, ReplicaNotFoundError
from repro.hdfs.checksum import chunk_checksums, verify_chunk_checksums
from repro.hdfs.chunk import CHUNK_SIZE, PACKET_SIZE
from repro.hdfs.block import (
    BlockLocation,
    LogicalBlock,
    Replica,
    BlockPayload,
    TextBlockPayload,
)
from repro.hdfs.namenode import NameNode
from repro.hdfs.datanode import DataNode
from repro.hdfs.pipeline import StandardUploadPipeline, BlockUploadResult
from repro.hdfs.client import HdfsClient, UploadReport
from repro.hdfs.filesystem import Hdfs, DataFile

__all__ = [
    "HdfsError",
    "BlockNotFoundError",
    "ReplicaNotFoundError",
    "chunk_checksums",
    "verify_chunk_checksums",
    "CHUNK_SIZE",
    "PACKET_SIZE",
    "BlockLocation",
    "LogicalBlock",
    "Replica",
    "BlockPayload",
    "TextBlockPayload",
    "NameNode",
    "DataNode",
    "StandardUploadPipeline",
    "BlockUploadResult",
    "HdfsClient",
    "UploadReport",
    "Hdfs",
    "DataFile",
]
