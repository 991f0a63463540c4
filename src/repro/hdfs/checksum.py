"""Chunk checksums.

HDFS splits each block into 512-byte chunks and keeps a CRC per chunk in a separate checksum
file next to each replica.  The checksums are re-used whenever the data travels over the
network; the last datanode of the upload pipeline verifies them on behalf of the whole chain
(Section 3.2).  HAIL must *recompute* them per replica because every replica is re-sorted.

The cost model charges every one of those passes (``CpuModel.checksum``), and
:func:`checksum_file_size` sizes the checksum file each replica writes.  The CRCs themselves
are computed only where the persistence journal writes a payload
(:func:`repro.persist.state.capture_block`), and restore checks them with
:func:`verify_chunk_checksums`; no replica holds them in memory.
"""

from __future__ import annotations

import zlib
from typing import Sequence

from repro.hdfs.chunk import CHUNK_SIZE


def chunk_checksums(payload: bytes) -> list[int]:
    """CRC32 of every 512-byte chunk of ``payload`` (the last chunk may be shorter)."""
    return [
        zlib.crc32(payload[offset : offset + CHUNK_SIZE])
        for offset in range(0, len(payload), CHUNK_SIZE)
    ]


def verify_chunk_checksums(payload: bytes, checksums: Sequence[int]) -> bool:
    """True when ``payload`` matches the per-chunk ``checksums``.

    Restore checks every journaled payload with it against the CRCs its ``Dir_rep`` row
    journals (:func:`repro.persist.state.restore_system`).
    """
    return list(checksums) == chunk_checksums(payload)


def checksum_file_size(payload_size: int) -> int:
    """Size in bytes of the checksum file for a replica of ``payload_size`` bytes (4 B per CRC)."""
    if payload_size <= 0:
        return 0
    num_chunks = (payload_size + CHUNK_SIZE - 1) // CHUNK_SIZE
    return 4 * num_chunks
