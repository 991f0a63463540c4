"""Logical HDFS blocks, physical replicas and block payloads.

An HDFS *block* is a logical horizontal partition of a file; each block is physically stored
``replication`` times, and each physical copy is a *replica*.  In stock HDFS all replicas are
byte-identical; HAIL's whole point is that they need not be — every replica may use a different
sort order, a different clustered index, and therefore a different size and different checksums,
while still representing the same logical block (which is why failover is unaffected).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.layouts.schema import Schema


class BlockPayload(abc.ABC):
    """Physical content of one replica.

    Concrete payloads: :class:`TextBlockPayload` (stock Hadoop), ``HailBlock``
    (:mod:`repro.hail.hail_block`) and ``TrojanBlockPayload``
    (:mod:`repro.baselines.hadoopplusplus`).
    """

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Physical size of the replica's data file in bytes (functional, unscaled)."""

    @abc.abstractmethod
    def describe(self) -> dict:
        """Human-readable summary used by reports and the namenode web-UI equivalent."""

    @property
    def layout(self) -> str:
        """Short layout tag, e.g. ``"text-row"`` or ``"pax+index(visitDate)"``."""
        return self.describe().get("layout", self.__class__.__name__)


class TextBlockPayload(BlockPayload):
    """Stock HDFS replica content: the uploaded text lines, byte-identical on every replica.

    The size is the length of :meth:`to_bytes`, taken once at construction (one join and one
    UTF-8 pass over the block); the bytes themselves are not kept.  The lines are a tuple, so
    a scan can hand them out without a copy (a tuple handed in is adopted as is).
    """

    def __init__(self, lines: Sequence[str], schema: Optional[Schema] = None) -> None:
        self.lines: tuple[str, ...] = tuple(lines)
        self.schema = schema
        self._size = len(self.to_bytes())

    def size_bytes(self) -> int:
        return self._size

    def to_bytes(self) -> bytes:
        """The exact byte content of the replica's data file."""
        if not self.lines:
            return b""
        return ("\n".join(self.lines) + "\n").encode("utf-8")

    def describe(self) -> dict:
        return {"layout": "text-row", "records": len(self.lines), "bytes": self._size}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextBlockPayload(lines={len(self.lines)}, bytes={self._size})"


@dataclass
class LogicalBlock:
    """A logical HDFS block: the records of one horizontal partition of a file.

    The HAIL client never splits a row between two blocks (it cuts blocks at row boundaries,
    Section 3.1), so a logical block is simply a list of typed records plus the rows that failed
    schema validation ("bad records").
    """

    block_id: int
    path: str
    records: list[tuple]
    schema: Schema
    bad_lines: list[str] = field(default_factory=list)
    text_size_bytes: int = 0

    @property
    def num_records(self) -> int:
        """Number of well-formed records in the block."""
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogicalBlock(id={self.block_id}, path={self.path!r}, records={len(self.records)})"


@dataclass
class Replica:
    """One physical copy of a logical block stored on one datanode."""

    block_id: int
    datanode_id: int
    payload: BlockPayload
    checksums: tuple[int, ...] = ()
    sort_attribute: Optional[str] = None
    indexed_attribute: Optional[str] = None

    @property
    def size_bytes(self) -> int:
        """Physical size of the replica's data file."""
        return self.payload.size_bytes()

    def describe(self) -> dict:
        """Summary including layout and index information."""
        info = dict(self.payload.describe())
        info.update(
            {
                "block_id": self.block_id,
                "datanode": self.datanode_id,
                "sort_attribute": self.sort_attribute,
                "indexed_attribute": self.indexed_attribute,
            }
        )
        return info


@dataclass(frozen=True)
class BlockLocation:
    """Where the replicas of one block live (what ``BlockLocation.getHosts`` returns).

    ``hosts`` preserves the namenode's ordering.  HAIL extends lookups over this structure with
    ``getHostsWithIndex`` — in this reproduction that lives on the namenode
    (:meth:`repro.hdfs.namenode.NameNode.hosts_with_index`) and on the HAIL scheduler.
    """

    block_id: int
    path: str
    hosts: tuple[int, ...]
    length_bytes: int

    def get_hosts(self) -> tuple[int, ...]:
        """Datanodes holding a replica of this block."""
        return self.hosts
