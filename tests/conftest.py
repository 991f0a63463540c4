"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CostModel, CostParameters, HardwareProfile
from repro.datagen import SyntheticGenerator, UserVisitsGenerator
from repro.hdfs import Hdfs
from repro.layouts import FieldType, Schema


@pytest.fixture
def physical_profile() -> HardwareProfile:
    """The physical-cluster hardware profile."""
    return HardwareProfile.physical()


@pytest.fixture
def small_cluster() -> Cluster:
    """A four-node physical cluster."""
    return Cluster.homogeneous(4, HardwareProfile.physical(), seed=1)


@pytest.fixture
def cost_model() -> CostModel:
    """An unscaled cost model with deterministic variance."""
    return CostModel(CostParameters(data_scale=1.0, variance_seed=11))


@pytest.fixture
def hdfs(small_cluster, cost_model) -> Hdfs:
    """An empty HDFS deployment over the small cluster."""
    return Hdfs(small_cluster, cost_model)


@pytest.fixture
def simple_schema() -> Schema:
    """A small mixed-type schema used by unit tests."""
    return Schema.of(
        ("id", FieldType.INT),
        ("name", FieldType.STRING),
        ("score", FieldType.DOUBLE),
        name="simple",
    )


@pytest.fixture
def simple_records(simple_schema) -> list[tuple]:
    """Deterministic records for the simple schema."""
    return [(i, f"name-{i % 7}", round(i * 1.5, 2)) for i in range(60)]


@pytest.fixture
def uservisits_sample() -> list[tuple]:
    """A small deterministic UserVisits sample with the probe IP present."""
    return UserVisitsGenerator(seed=3, probe_ip_rate=1 / 200).generate(600)


@pytest.fixture
def synthetic_sample() -> list[tuple]:
    """A small deterministic Synthetic sample."""
    return SyntheticGenerator(seed=5).generate(400)


@pytest.fixture(scope="session")
def busy_session():
    """``(session, jobs)`` of one HAIL session that exercised most of the counter table.

    Everything that feeds a counter is on: adaptive indexing with multi-attribute builds, the
    auto-tuner with per-attribute ledgers, zone maps with split pruning, two concurrent jobs.
    The session ran 18 two-attribute conjunctive scans, an interleaved batch, a group-by and
    a top-k; ``jobs`` holds ``(filter attributes, result)`` per finished query, in order.
    """
    from repro.api import Session, col
    from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE
    from repro.hail import HailConfig, HailSystem

    config = (
        HailConfig(functional_partition_size=1, splitting_policy=False)
        .with_adaptive(True, offer_rate=0.6)
        .with_lifecycle(auto_tune=True, multi_attribute=True, per_attribute_tune=True)
        .with_zone_maps(True, split_pruning=True)
        .with_concurrency(max_jobs=2)
    )
    rows = sorted(SyntheticGenerator(seed=3).generate(1200))  # clustered on f1: zones can skip
    block_bytes = sum(SYNTHETIC_SCHEMA.text_size(row) for row in rows[:100])
    cost = CostModel(
        CostParameters(enable_variance=False, data_scale=64 * 1024 * 1024 / block_bytes)
    )
    session = Session(HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=cost))
    data = session.upload("/busy/synthetic", rows, SYNTHETIC_SCHEMA, rows_per_block=100)

    def scan(i: int):
        first, second = (("f1", "f2"), ("f2", "f3"), ("f3", "f1"))[i % 3]
        bound = VALUE_RANGE // (2 + i % 4)
        query = data.where((col(first) < bound) & (col(second) < VALUE_RANGE // 2))
        return {first, second}, query.select(first, second)

    jobs = [(attributes, query.collect()) for attributes, query in map(scan, range(18))]
    batch = [scan(i) for i in range(4)]
    results = session.run_batch([query for _, query in batch])
    jobs.extend((attributes, result) for (attributes, _), result in zip(batch, results))
    jobs.append((set(), data.group_by("f3").agg("count(*)", "sum(f2)").collect()))
    jobs.append((set(), data.order_by("f1", descending=True).limit(5).collect()))
    return session, jobs
