"""Chunk checksums.

HDFS splits each block into 512-byte chunks and keeps a CRC per chunk in a separate checksum
file next to each replica.  The checksums are re-used whenever the data travels over the
network; the last datanode of the upload pipeline verifies them on behalf of the whole chain
(Section 3.2).  HAIL must *recompute* them per replica because every replica is re-sorted.
"""

from __future__ import annotations

import zlib
from typing import Sequence

DEFAULT_CHUNK_SIZE = 512


def chunk_checksums(payload: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[int]:
    """CRC32 of every ``chunk_size``-byte chunk of ``payload`` (last chunk may be shorter)."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [
        zlib.crc32(payload[offset : offset + chunk_size])
        for offset in range(0, len(payload), chunk_size)
    ]


def verify_chunk_checksums(
    payload: bytes, checksums: Sequence[int], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> bool:
    """True when ``payload`` matches the per-chunk ``checksums``.

    Census keep list (``tests/test_census.py``): restore's payload checksum check will call it
    (ROADMAP item 2(b)).
    """
    return list(checksums) == chunk_checksums(payload, chunk_size)


def checksum_file_size(payload_size: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Size in bytes of the checksum file for a replica of ``payload_size`` bytes (4 B per CRC)."""
    if payload_size <= 0:
        return 0
    num_chunks = (payload_size + chunk_size - 1) // chunk_size
    return 4 * num_chunks
