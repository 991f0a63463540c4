"""Tests for hardware profiles."""

import pytest

from repro.cluster.hardware import SCALE_UP_PROFILES, HardwareProfile


def test_physical_profile_basic_fields():
    profile = HardwareProfile.physical()
    assert profile.name == "physical"
    assert profile.cores == 4
    assert profile.core_speed == pytest.approx(1.0)
    assert profile.disks == 6


def test_by_name_resolves_all_scale_up_profiles():
    for name in SCALE_UP_PROFILES:
        profile = HardwareProfile.by_name(name)
        assert profile.name == name


def test_by_name_accepts_aliases():
    assert HardwareProfile.by_name("large").name == "m1.large"
    assert HardwareProfile.by_name("xlarge").name == "m1.xlarge"
    assert HardwareProfile.by_name("cluster-quadruple").name == "cc1.4xlarge"


def test_by_name_unknown_raises():
    with pytest.raises(KeyError):
        HardwareProfile.by_name("mainframe")


def test_cores_times_speed_orders_profiles_by_compute_power():
    """The scale-up experiment relies on the CPU ordering large < xlarge < quad <= physical-ish."""
    large, xlarge, quad, physical = (
        profile.cores * profile.core_speed
        for profile in (
            HardwareProfile.ec2_large(), HardwareProfile.ec2_xlarge(),
            HardwareProfile.ec2_cluster_quad(), HardwareProfile.physical(),
        )
    )
    assert large < xlarge < quad
    assert large < physical


def test_ec2_profiles_have_higher_io_variance_than_physical():
    physical = HardwareProfile.physical()
    for name in ("m1.large", "m1.xlarge", "cc1.4xlarge"):
        assert HardwareProfile.by_name(name).io_variance > physical.io_variance


def test_aggregate_disk_bandwidth_bounded_by_two_disks():
    profile = HardwareProfile.physical()
    assert profile.aggregate_disk_read_mb_s == pytest.approx(profile.disk_read_mb_s * 2)
    single_disk = profile.scaled(disks=1)
    assert single_disk.aggregate_disk_read_mb_s == pytest.approx(profile.disk_read_mb_s)


def test_scaled_returns_modified_copy():
    profile = HardwareProfile.physical()
    faster = profile.scaled(disk_read_mb_s=200.0)
    assert faster.disk_read_mb_s == pytest.approx(200.0)
    assert profile.disk_read_mb_s != faster.disk_read_mb_s
    assert faster.cores == profile.cores
