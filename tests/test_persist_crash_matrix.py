"""Crash-point fault-injection matrix for the persistence layer (`src/repro/persist/`).

Every journal write site (`mid_upload`, `mid_adaptive_commit`, `mid_eviction`,
`mid_rebalance`) is killed mid-mutation via an armed :class:`~repro.persist.CrashPoint`
— plus the `mid_concurrent_batch` barrier, which kills the deployment *between* job
completions of an interleaved concurrent batch — the dead deployment's process state is
discarded, and a brand-new deployment restores from the journal.  The matrix pins the
crash-safety contract:

- ``Dir_rep`` is consistent after every restore — no half-registered replicas
  (:func:`~repro.hail.scheduler.check_dir_rep_consistency`), every ``Dir_block`` host
  physically holds its replica, and no block lost its last copy;
- eviction tombstones never resurrect — a restored tombstone on ``(block, attribute)``
  coexists with no replica indexed on that attribute;
- queries on the restored deployment answer exactly the records the journal holds.

The sites crash *between* the node-journal commits and the namenode-journal transaction,
so each test exercises the worst ordering the journal can produce.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Session, col
from repro.api.session import BatchExecutionError
from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.lifecycle import evict_under_pressure
from repro.hail.config import HailConfig
from repro.hail.scheduler import check_dir_rep_consistency
from repro.hail.system import HailSystem
from repro.persist import CrashInjected, CrashPoint, restore_system
from repro.query.predicate import Operator, Predicate, Query
from replica_rows import replica_rows

_PATH = "/crash/synthetic"

#: The journal's one backend, named in every test id.
BACKENDS = ("sqlite",)


def _cost() -> CostModel:
    return CostModel(CostParameters(enable_variance=False, data_scale=5000.0))


def _config(backend: str, directory, **overrides) -> HailConfig:
    config = HailConfig(
        index_attributes=(),
        replication=3,
        functional_partition_size=1,
        splitting_policy=False,
        **overrides,
    )
    return config.with_adaptive(True, offer_rate=1.0).with_persistence(
        backend, directory=str(directory)
    )


def _fresh(config: HailConfig) -> HailSystem:
    return HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=_cost())


def _upload(system: HailSystem) -> None:
    records = SyntheticGenerator(seed=3).generate(800)
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)


def _restore(config: HailConfig) -> HailSystem:
    """A brand-new deployment rebuilt from the journal alone (the crashed one is dead)."""
    system = _fresh(config)
    restore_system(system, system.hdfs.persist.load_state())
    return system


def _query(attribute: str = "f1") -> Query:
    return Query(
        name=f"crash-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=None,
        description="",
    )


def _expected(system: HailSystem, attribute: str = "f1") -> list[tuple]:
    """The probe answer over exactly the records the restored deployment's replicas hold."""
    position = SYNTHETIC_SCHEMA.field_names.index(attribute)
    return sorted(
        (
            record
            for record in replica_rows(system.hdfs, _PATH)
            if record[position] < VALUE_RANGE // 10
        ),
        key=repr,
    )


def _assert_recovered(system: HailSystem) -> None:
    """The post-restore consistency contract every crash site must satisfy."""
    assert check_dir_rep_consistency(system.hdfs, _PATH) == []
    namenode = system.hdfs.namenode
    for block_id in namenode.file_blocks(_PATH):
        hosts = namenode.block_datanodes(block_id, alive_only=False)
        assert hosts, f"block {block_id} lost its last replica"
        for datanode_id in hosts:
            assert system.hdfs.datanode(datanode_id).has_replica(block_id)
        # Tombstones never resurrect: an evicted (block, attribute) index must not coexist
        # with a replica still registered as indexed on that attribute.
        for attribute in namenode.block_eviction_tombstones(block_id):
            for datanode_id in hosts:
                info = namenode.replica_info(block_id, datanode_id)
                assert info is None or info.indexed_attribute != attribute
    result = system.run_query(_query(), _PATH)
    assert result.sorted_records() == _expected(system)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_mid_upload_loses_whole_blocks_never_partial_ones(backend, tmp_path):
    config = _config(backend, tmp_path)
    system = _fresh(config)
    system.hdfs.persist.crash_point = CrashPoint("mid_upload", after=2)
    with pytest.raises(CrashInjected):
        _upload(system)
    system.hdfs.persist.close()

    restored = _restore(config)
    # Exactly the fully journaled prefix survives: whole blocks, never half a pipeline.
    blocks = restored.hdfs.namenode.file_blocks(_PATH)
    assert len(blocks) == 2
    for block_id in blocks:
        assert len(restored.hdfs.namenode.block_datanodes(block_id, alive_only=False)) == 3
    _assert_recovered(restored)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_mid_adaptive_commit_keeps_committed_builds_only(backend, tmp_path):
    config = _config(backend, tmp_path)
    system = _fresh(config)
    _upload(system)
    system.hdfs.persist.crash_point = CrashPoint("mid_adaptive_commit", after=1)
    with pytest.raises(CrashInjected):
        system.run_query(_query(), _PATH)
    system.hdfs.persist.close()

    restored = _restore(config)
    # The build journaled before the kill survives; the in-flight one vanished wholesale.
    assert 1 <= restored.adaptive_replica_count(_PATH) < len(
        restored.hdfs.namenode.file_blocks(_PATH)
    )
    _assert_recovered(restored)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_mid_eviction_never_resurrects_tombstones(backend, tmp_path):
    config = _config(backend, tmp_path)
    system = _fresh(config)
    _upload(system)
    for round_number in range(2):
        system.run_query(_query(), _PATH)
    assert system.adaptive_replica_count(_PATH) > 0
    system.hdfs.persist.crash_point = CrashPoint("mid_eviction", after=1)
    pressure = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
    with pytest.raises(CrashInjected):
        evict_under_pressure(system.hdfs, pressure)
    system.hdfs.persist.close()

    restored = _restore(config)
    namenode = restored.hdfs.namenode
    # The eviction journaled before the kill restored as a tombstone (checked against the
    # alive replicas inside _assert_recovered); the in-flight one never happened.
    assert any(
        namenode.block_eviction_tombstones(block_id)
        for block_id in namenode.file_blocks(_PATH)
    )
    _assert_recovered(restored)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_mid_concurrent_batch_preserves_partial_results(backend, tmp_path):
    """A kill between completions of an interleaved batch loses nothing that finished.

    The concurrent runner crosses the ``mid_concurrent_batch`` barrier before committing
    every completion after the first, so ``after=0`` kills the deployment with at least
    one job fully done and at least one undelivered.  The finished work must travel out
    on ``BatchExecutionError.partial`` with exact answers, and a restore from the journal
    must pass the full consistency contract.
    """
    config = _config(backend, tmp_path).with_concurrency(max_jobs=2)
    session = Session.deploy(nodes=4, hail_config=config, tenant="alice")
    records = SyntheticGenerator(seed=3).generate(800)
    session.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=100)
    system = session.system("HAIL")

    attributes = ("f1", "f2", "f3")
    for i, attribute in enumerate(attributes):
        session.dataset(_PATH).where(col(attribute) < VALUE_RANGE // 10).named(
            f"cb-{i}-{attribute}"
        ).submit()
    system.hdfs.persist.crash_point = CrashPoint("mid_concurrent_batch", after=0)
    with pytest.raises(BatchExecutionError) as excinfo:
        session.run_batch()
    error = excinfo.value
    assert isinstance(error.__cause__.__cause__, CrashInjected)

    # The barrier fires only once >=1 job has completed, so the partial is never empty —
    # and never the whole batch, or nothing crashed.
    partial = error.partial
    assert 0 < len(partial) < len(attributes)
    by_name = {f"cb-{i}-{attribute}": attribute for i, attribute in enumerate(attributes)}
    for result in partial:
        attribute = by_name[result.query_name]
        assert result.sorted_records() == _expected(system, attribute)
    # Session statistics already folded in exactly the completed queries.
    assert session.stats().queries_run == len(partial)
    system.hdfs.persist.close()

    restored = _restore(config)
    _assert_recovered(restored)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_mid_rebalance_never_loses_a_replica(backend, tmp_path):
    config = _config(
        backend,
        tmp_path,
        index_aware_scheduling=True,
        placement_balancer=True,
        placement_rebuilds_per_job=4,
    )
    system = _fresh(config)
    _upload(system)
    for round_number in range(2):
        system.run_query(_query(), _PATH)
    assert system.adaptive_replica_count(_PATH) > 0
    # An eviction storm opens coverage holes; switching the offer rate off afterwards
    # forces the repair through the balancer's rebuild path, not adaptive scan builds.
    storm = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
    evict_under_pressure(system.hdfs, storm)
    system.config = dataclasses.replace(system.config, adaptive_offer_rate=0.0)
    system.hdfs.persist.crash_point = CrashPoint("mid_rebalance", after=0)
    with pytest.raises(CrashInjected):
        for round_number in range(8):
            system.run_query(_query(), _PATH)
    system.hdfs.persist.close()

    _assert_recovered(_restore(config))
