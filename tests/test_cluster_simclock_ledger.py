"""Tests for simulated time accounting: the per-node TransferLedger."""

import pytest

from repro.cluster import (
    Cluster,
    CostModel,
    CostParameters,
    TransferLedger,
)

_MB = 1024.0 * 1024.0


# --------------------------------------------------------------------------- TransferLedger
@pytest.fixture
def ledger_setup():
    cluster = Cluster.homogeneous(3)
    cost = CostModel(CostParameters(enable_variance=False))
    return cluster, cost, TransferLedger(cluster, cost)


def test_ledger_empty_makespan_zero(ledger_setup):
    _, _, ledger = ledger_setup
    assert ledger.makespan() == 0.0


def test_ledger_disk_reads_and_writes_accumulate(ledger_setup):
    _, _, ledger = ledger_setup
    ledger.record_disk_read(0, 10 * _MB)
    ledger.record_disk_write(0, 20 * _MB)
    ledger.record_disk_write(1, 5 * _MB)
    assert ledger.usage(0).disk_read_bytes == pytest.approx(10 * _MB)
    assert ledger.usage(0).disk_write_bytes + ledger.usage(1).disk_write_bytes == pytest.approx(
        25 * _MB
    )
    assert ledger.node_time(0) > ledger.node_time(1) > 0.0


def test_ledger_same_node_transfer_is_free(ledger_setup):
    _, _, ledger = ledger_setup
    ledger.record_transfer(1, 1, 100 * _MB)
    assert ledger.makespan() == 0.0


def test_ledger_cpu_overlaps_with_io(ledger_setup):
    cluster, cost, ledger = ledger_setup
    ledger.record_disk_write(0, 100 * _MB)
    io_only = ledger.node_time(0)
    ledger.record_cpu(0, io_only / 2)
    assert ledger.node_time(0) == pytest.approx(io_only)
    ledger.record_cpu(0, io_only)
    assert ledger.node_time(0) > io_only


def test_ledger_fixed_time_is_additive(ledger_setup):
    _, _, ledger = ledger_setup
    ledger.record_disk_write(2, 10 * _MB)
    before = ledger.node_time(2)
    ledger.record_fixed(2, 1.25)
    assert ledger.node_time(2) == pytest.approx(before + 1.25)


def test_ledger_makespan_is_max_over_nodes(ledger_setup):
    _, _, ledger = ledger_setup
    ledger.record_disk_write(0, 10 * _MB)
    ledger.record_disk_write(1, 200 * _MB)
    assert ledger.makespan() == pytest.approx(max(ledger.node_time(0), ledger.node_time(1)))


def test_ledger_network_uses_slowest_direction(ledger_setup):
    cluster, cost, ledger = ledger_setup
    ledger.record_transfer(0, 1, 500 * _MB)
    # Node 0 only sends, node 1 only receives; both should be charged.
    assert ledger.node_time(0) > 0.0
    assert ledger.node_time(1) > 0.0
