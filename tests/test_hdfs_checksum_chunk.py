"""Tests for chunk checksums and packet counts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdfs import CHUNK_SIZE, PACKET_SIZE, chunk_checksums, verify_chunk_checksums
from repro.hdfs.checksum import checksum_file_size
from repro.hdfs.chunk import PACKET_DATA_SIZE, num_packets


def test_chunk_checksums_count():
    payload = b"x" * (3 * CHUNK_SIZE + 100)
    checksums = chunk_checksums(payload)
    assert len(checksums) == 4
    assert chunk_checksums(b"") == []
    with pytest.raises(ValueError):
        chunk_checksums(payload, chunk_size=0)


def test_verify_chunk_checksums_detects_corruption():
    payload = bytes(range(256)) * 10
    checksums = chunk_checksums(payload)
    assert verify_chunk_checksums(payload, checksums)
    corrupted = b"X" + payload[1:]
    assert not verify_chunk_checksums(corrupted, checksums)


@given(payload=st.binary(min_size=1, max_size=3 * CHUNK_SIZE + 7), data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_change_to_any_byte_is_detected(payload, data):
    checksums = chunk_checksums(payload)
    position = data.draw(st.integers(0, len(payload) - 1))
    flip = data.draw(st.integers(1, 255))
    corrupted = payload[:position] + bytes([payload[position] ^ flip]) + payload[position + 1 :]
    assert verify_chunk_checksums(payload, checksums)
    assert not verify_chunk_checksums(corrupted, checksums)
    # A dropped trailing byte changes the last chunk (or drops it), so it is caught too.
    assert not verify_chunk_checksums(payload[:-1], checksums)


@given(size=st.integers(0, 5 * CHUNK_SIZE), chunk_size=st.sampled_from([1, 7, 64, CHUNK_SIZE]))
@settings(max_examples=100, deadline=None)
def test_the_checksum_file_holds_four_bytes_per_chunk_checksum(size, chunk_size):
    checksums = chunk_checksums(bytes(size), chunk_size=chunk_size)
    assert len(checksums) == -(-size // chunk_size)
    assert checksum_file_size(size, chunk_size=chunk_size) == 4 * len(checksums)


def test_checksum_file_size_four_bytes_per_chunk():
    assert checksum_file_size(0) == 0
    assert checksum_file_size(1) == 4
    assert checksum_file_size(CHUNK_SIZE) == 4
    assert checksum_file_size(CHUNK_SIZE + 1) == 8


def test_num_packets_rounds_up_and_a_full_packet_fits_in_64_kb():
    sizes = (0, 1, PACKET_DATA_SIZE, PACKET_DATA_SIZE + 1, 5 * PACKET_DATA_SIZE)
    assert [num_packets(size) for size in sizes] == [1, 1, 1, 2, 5]
    # Chunk data plus one 4-byte CRC per chunk stays within the 64 KB packet.
    assert PACKET_DATA_SIZE + 4 * (PACKET_DATA_SIZE // CHUNK_SIZE) <= PACKET_SIZE
