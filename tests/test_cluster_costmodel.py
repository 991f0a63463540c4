"""Tests for the central cost model and its parameters."""

import pytest

from repro.cluster import Cluster, CostModel, CostParameters, HardwareProfile


def test_default_parameters_follow_hadoop_defaults():
    params = CostParameters()
    assert params.block_size == 64 * 1024 * 1024
    assert params.chunk_size == 512
    assert params.map_slots_per_node == 2


def test_replication_is_not_a_cost_parameter():
    params = CostParameters()
    # Replication is declared by the system/Hdfs that stores the replicas, nowhere else.
    assert not hasattr(params, "with_replication")
    with pytest.raises(TypeError):
        CostParameters(replication=5)


def test_scale_bytes_and_counts():
    cost = CostModel(CostParameters(data_scale=100.0))
    assert cost.scale_bytes(10) == pytest.approx(1000.0)
    assert cost.scale_count(3) == pytest.approx(300.0)


def test_per_node_models_are_cached_per_profile():
    cost = CostModel()
    cluster = Cluster.homogeneous(3)
    first = cost.disk(cluster.node(0))
    second = cost.disk(cluster.node(1))
    assert first is second
    assert cost.cpu(cluster.node(0)) is cost.cpu(cluster.node(2))


def test_vary_io_is_deterministic_given_seed():
    profile = HardwareProfile.ec2_large()
    a = CostModel(CostParameters(variance_seed=42))
    b = CostModel(CostParameters(variance_seed=42))
    assert [a.vary_io(profile, 10.0) for _ in range(5)] == [
        b.vary_io(profile, 10.0) for _ in range(5)
    ]


def test_vary_io_disabled_returns_input():
    cost = CostModel(CostParameters(enable_variance=False))
    assert cost.vary_io(HardwareProfile.ec2_large(), 12.5) == pytest.approx(12.5)


def test_vary_io_never_negative_and_zero_for_physical_like_profiles():
    cost = CostModel()
    novariance = HardwareProfile.physical().scaled(io_variance=0.0)
    assert cost.vary_io(novariance, 5.0) == pytest.approx(5.0)
    noisy = HardwareProfile.ec2_large()
    for _ in range(100):
        assert cost.vary_io(noisy, 1.0) > 0.0


def test_split_phase_cost_only_for_header_reading_formats():
    cost = CostModel()
    assert cost.split_phase(100, reads_block_headers=False) == 0.0
    assert cost.split_phase(100, reads_block_headers=True) == pytest.approx(
        100 * cost.params.split_header_read_s
    )


def test_describe_exposes_key_calibration():
    info = CostModel().describe()
    assert info["block_size"] == 64 * 1024 * 1024
    assert "task_scheduling_overhead_s" in info
