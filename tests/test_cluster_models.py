"""Tests for the disk, network and CPU cost models."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cpu import CpuModel, CpuRates
from repro.cluster.disk import DiskModel
from repro.cluster.hardware import SCALE_UP_PROFILES, HardwareProfile
from repro.cluster.network import NetworkModel

_MB = 1024.0 * 1024.0


@pytest.fixture
def disk() -> DiskModel:
    return DiskModel(hardware=HardwareProfile.physical())


@pytest.fixture
def cpu() -> CpuModel:
    return CpuModel(hardware=HardwareProfile.physical())


# --------------------------------------------------------------------------- disk
def test_sequential_read_includes_one_seek(disk):
    seconds = disk.sequential_read(100 * _MB)
    expected = disk.seek() + 100 / disk.hardware.disk_read_mb_s
    assert seconds == pytest.approx(expected, rel=1e-6)


def test_sequential_read_zero_bytes_is_free(disk):
    assert disk.sequential_read(0) == 0.0
    assert disk.sequential_write(0) == 0.0


def test_random_read_charges_requested_seeks(disk):
    one_seek = disk.random_read(1024, num_seeks=1)
    three_seeks = disk.random_read(1024, num_seeks=3)
    assert three_seeks == pytest.approx(one_seek + 2 * disk.seek(), rel=1e-9)


def test_mixed_read_write_slower_than_raw_bandwidth(disk):
    volume = 1024 * _MB
    mixed = disk.mixed_read_write(volume, volume)
    raw = (2 * volume) / (disk.hardware.aggregate_disk_read_mb_s * _MB)
    assert mixed > raw


def test_mixed_read_write_monotone_in_volume(disk):
    assert disk.mixed_read_write(10 * _MB, 10 * _MB) < disk.mixed_read_write(20 * _MB, 20 * _MB)


# --------------------------------------------------------------------------- network
def test_network_local_transfer_is_latency_only():
    network = NetworkModel()
    profile = HardwareProfile.physical()
    assert network.transfer(100 * _MB, profile, profile, locality="node") == pytest.approx(
        network.latency_ms / 1000.0
    )


def test_network_transfer_bounded_by_slower_nic():
    network = NetworkModel()
    fast = HardwareProfile.ec2_cluster_quad()
    slow = HardwareProfile.ec2_large()
    fast_to_slow = network.transfer(100 * _MB, fast, slow)
    fast_to_fast = network.transfer(100 * _MB, fast, fast)
    assert fast_to_slow > fast_to_fast


def test_network_off_rack_penalty():
    network = NetworkModel()
    profile = HardwareProfile.physical()
    in_rack = network.transfer(100 * _MB, profile, profile, locality="rack")
    off_rack = network.transfer(100 * _MB, profile, profile, locality="off-rack")
    assert off_rack > in_rack


# --------------------------------------------------------------------------- cpu
def test_parse_to_binary_string_fraction_matters(cpu):
    all_strings = cpu.parse_to_binary(100 * _MB, string_fraction=1.0)
    all_numeric = cpu.parse_to_binary(100 * _MB, string_fraction=0.0)
    assert all_strings > all_numeric


def test_parse_to_binary_scales_with_cores():
    profile = HardwareProfile.physical()
    cpu = CpuModel(hardware=profile)
    one_core = cpu.parse_to_binary(100 * _MB, cores=1)
    four_cores = cpu.parse_to_binary(100 * _MB, cores=4)
    assert four_cores == pytest.approx(one_core / 4, rel=1e-6)
    # Requesting more cores than the node has is capped.
    assert cpu.parse_to_binary(100 * _MB, cores=16) == pytest.approx(four_cores, rel=1e-6)


def test_weak_cores_are_slower():
    fast = CpuModel(hardware=HardwareProfile.physical())
    slow = CpuModel(hardware=HardwareProfile.ec2_large())
    assert slow.parse_to_binary(64 * _MB, cores=1) > fast.parse_to_binary(64 * _MB, cores=1)


def test_sort_block_grows_superlinearly_with_values(cpu):
    small = cpu.sort_block(10_000, 1 * _MB)
    large = cpu.sort_block(1_000_000, 1 * _MB)
    assert large > small * 50


def test_scan_text_includes_per_row_cost(cpu):
    few_rows = cpu.scan_text(64 * _MB, num_rows=1_000)
    many_rows = cpu.scan_text(64 * _MB, num_rows=1_000_000)
    assert many_rows > few_rows


def test_reconstruct_tuples_row_term(cpu):
    none = cpu.reconstruct_tuples(0.0, num_rows=0)
    some = cpu.reconstruct_tuples(0.0, num_rows=100_000)
    assert none == 0.0
    assert some > 0.0


def test_zero_work_costs_nothing(cpu):
    assert cpu.checksum(0) == 0.0
    assert cpu.sort_block(0, 0) == 0.0
    assert cpu.build_index(0) == 0.0
    assert cpu.post_filter(0, 0) == 0.0


# ------------------------------------------------------------------ bound query-side divisors
#: Every hardware profile the repository defines (physical and the three EC2 types).
_PROFILES = [HardwareProfile.by_name(name) for name in SCALE_UP_PROFILES]
_AMOUNTS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)

#: Each bound CPU method, its byte rate and its per-row rate.
_CPU_TERMS = [
    ("scan_text", "text_scan_mb_s", "text_row_seconds"),
    ("scan_binary_rows", "predicate_eval_mb_s", "binary_row_seconds"),
    ("post_filter", "predicate_eval_mb_s", "candidate_row_seconds"),
    ("reconstruct_tuples", "tuple_reconstruction_mb_s", "qualifying_row_seconds"),
]


def test_the_profiles_differ_in_core_speed_and_cores():
    assert len({profile.core_speed for profile in _PROFILES}) == len(_PROFILES)
    assert len({profile.cores for profile in _PROFILES}) > 1


@pytest.mark.parametrize("profile", _PROFILES, ids=lambda profile: profile.name)
@settings(max_examples=60, deadline=None)
@given(num_bytes=_AMOUNTS, num_rows=_AMOUNTS)
@example(num_bytes=0.0, num_rows=0.0)
@example(num_bytes=-1.0, num_rows=-5.0)
@example(num_bytes=1e300, num_rows=1e300)
@example(num_bytes=64 * _MB, num_rows=1.5e6)
def test_bound_cpu_charges_equal_the_one_core_formula(profile, num_bytes, num_rows):
    """The query side's bound divisors give bit for bit what ``_per_bytes``/``_per_rows``
    give at one core, on every profile."""
    cpu = CpuModel(hardware=profile)
    rates = cpu.rates
    for method, byte_rate, row_rate in _CPU_TERMS:
        expected = cpu._per_bytes(num_bytes, getattr(rates, byte_rate)) + cpu._per_rows(
            num_rows, getattr(rates, row_rate)
        )
        assert getattr(cpu, method)(num_bytes, num_rows) == expected, method
    assert cpu.evaluate_predicate(num_bytes) == cpu._per_bytes(
        num_bytes, rates.predicate_eval_mb_s
    )


@pytest.mark.parametrize("profile", _PROFILES, ids=lambda profile: profile.name)
@settings(max_examples=60, deadline=None)
@given(num_bytes=_AMOUNTS, num_seeks=st.integers(min_value=-3, max_value=1_000))
@example(num_bytes=0.0, num_seeks=0)
@example(num_bytes=-1.0, num_seeks=-1)
@example(num_bytes=1e300, num_seeks=1)
def test_bound_disk_reads_equal_the_hardware_formula(profile, num_bytes, num_seeks):
    """``random_read`` and the one-stream ``sequential_read`` equal the formula written out
    from the profile's seek time and read bandwidth, bit for bit."""
    disk = DiskModel(hardware=profile)
    seek_s = profile.disk_seek_ms / 1000.0
    transfer_s = max(num_bytes, 0.0) / (profile.disk_read_mb_s * _MB)
    expected_random = (
        0.0 if num_bytes <= 0 and num_seeks <= 0 else max(num_seeks, 0) * seek_s + transfer_s
    )
    assert disk.random_read(num_bytes, num_seeks=num_seeks) == expected_random
    expected_sequential = 0.0 if num_bytes <= 0 else seek_s + num_bytes / (
        profile.disk_read_mb_s * _MB
    )
    assert disk.sequential_read(num_bytes) == expected_sequential
    assert disk.seek() == seek_s
