"""Exception types of the HDFS substrate."""

from __future__ import annotations


class HdfsError(Exception):
    """Base class for all HDFS substrate errors."""


class FileNotFoundInHdfsError(HdfsError):
    """A path does not exist in the namespace."""


class FileAlreadyExistsError(HdfsError):
    """A path already exists (HDFS files are write-once)."""


class BlockNotFoundError(HdfsError):
    """A block id is not known to the namenode."""


class ReplicaNotFoundError(HdfsError):
    """A datanode does not hold a replica of the requested block."""


class UploadFailedError(HdfsError):
    """The upload pipeline failed (e.g. ACKs arrived out of order or a datanode died)."""
