"""Chunks and packets of the HDFS wire protocol.

While a block travels through the upload pipeline it is cut into *chunks* of 512 bytes; chunks
plus their checksums are grouped into *packets* of up to 64 KB, and the client streams packets
so that round-trip latencies are hidden (Section 3.2).  The simulation never builds a packet:
the cost model needs only packet counts (:func:`num_packets`) and byte volumes, and the
per-chunk checksums come from :mod:`repro.hdfs.checksum`.
"""

from __future__ import annotations

CHUNK_SIZE = 512
PACKET_SIZE = 64 * 1024
#: Bytes of chunk data per packet (the rest of the 64 KB is checksums and packet metadata).
_CHUNKS_PER_PACKET = PACKET_SIZE // (CHUNK_SIZE + 4)
PACKET_DATA_SIZE = _CHUNKS_PER_PACKET * CHUNK_SIZE


def num_packets(payload_size: int, packet_data_size: int = PACKET_DATA_SIZE) -> int:
    """Number of packets needed for ``payload_size`` bytes of block data."""
    if payload_size <= 0:
        return 1
    return (payload_size + packet_data_size - 1) // packet_data_size
