"""Kill-and-restart differential: a restored session continues a workload bit-identically.

The contract pinned here is the tentpole promise of `src/repro/persist/`: run half of Bob's
workload on a persistent deployment, checkpoint, throw the whole process state away, restore
from the journal into a brand-new deployment, and run the rest — every post-restore query
must answer *and cost* exactly what the uninterrupted run's same query did, and the session's
learned index footprint (``Session.stats()``) must survive the kill.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.datagen.uservisits import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.hail.config import HailConfig
from repro.workloads.bob import bob_logical_queries

_PATH = "/data/uservisits"

#: First half of Bob's workload runs before the kill, the rest after the restore.
_SPLIT = 2


def _config(backend: str, directory) -> HailConfig:
    return (
        HailConfig.for_attributes((), functional_partition_size=1)
        .with_adaptive(True, offer_rate=1.0)
        .with_persistence(backend, directory=str(directory))
    )


def _records():
    return UserVisitsGenerator(seed=42, probe_ip_rate=1 / 100).generate(600)


def _run_workload(session: Session, queries) -> list[tuple[list[tuple], float]]:
    """Each query's (canonical records, simulated runtime) — the differential fingerprint."""
    outcomes = []
    for query in queries:
        result = session.run(query, path=_PATH)
        outcomes.append((result.sorted_records(), result.runtime_s))
    return outcomes


@pytest.mark.parametrize("backend", ("sqlite", "memory"))
def test_restored_session_continues_bob_workload_bit_identically(backend, tmp_path):
    queries = bob_logical_queries()
    records = _records()

    # The uninterrupted reference: all of Bob's workload on one long-lived deployment.
    reference_config = _config(backend, tmp_path / "reference")
    reference = Session.deploy(nodes=4, hail_config=reference_config)
    reference.upload(_PATH, records, USERVISITS_SCHEMA, rows_per_block=100)
    expected = _run_workload(reference, queries)
    reference.system().hdfs.persist.close()

    # The interrupted run: half the workload, checkpoint, kill, restore, the rest.
    config = _config(backend, tmp_path / "interrupted")
    session = Session.deploy(nodes=4, hail_config=config)
    session.upload(_PATH, records, USERVISITS_SCHEMA, rows_per_block=100)
    first_half = _run_workload(session, queries[:_SPLIT])
    session.checkpoint()
    stats_before = session.stats()
    session.system().hdfs.persist.close()  # the kill: only the journal survives

    restored = Session.restore(config, nodes=4)

    # The learned index footprint survived the kill exactly (snapshot before the second
    # half runs — continuing the workload legitimately grows the pool further).
    stats_after = restored.stats()
    assert stats_after.adaptive_replicas == stats_before.adaptive_replicas
    assert stats_after.adaptive_bytes == stats_before.adaptive_bytes
    assert stats_after.adaptive_replicas[_PATH] > 0

    second_half = _run_workload(restored, queries[_SPLIT:])

    # Both halves are bit-identical to the uninterrupted run — answers and runtimes.
    assert first_half == expected[:_SPLIT]
    assert second_half == expected[_SPLIT:]


def _replica_sizes(session: Session) -> dict[tuple[int, int], int]:
    return {
        (node_id, block_id): datanode.replica(block_id).payload.size_bytes()
        for node_id, datanode in session.system().hdfs.datanodes.items()
        for block_id in datanode.block_ids()
    }


@pytest.mark.parametrize("backend", ("sqlite", "memory"))
def test_restored_replicas_carry_their_pre_crash_sizes(backend, tmp_path):
    """Sizes travel with the block, so ``replica_info()`` and the payload read one table and
    a Dir_rep consistency check cannot see it go stale: compare every restored replica with
    its pre-crash size and with an independent re-encode of its minipages instead."""
    config = _config(backend, tmp_path)
    session = Session.deploy(nodes=4, hail_config=config)
    session.upload(_PATH, _records(), USERVISITS_SCHEMA, rows_per_block=100)
    _run_workload(session, bob_logical_queries()[:_SPLIT])  # adaptive builds join the uploads
    session.checkpoint()
    before = _replica_sizes(session)
    session.system().hdfs.persist.close()

    restored = Session.restore(config, nodes=4)
    assert _replica_sizes(restored) == before
    for datanode in restored.system().hdfs.datanodes.values():
        for block_id in datanode.block_ids():
            payload = datanode.replica(block_id).payload
            assert payload.data_size_bytes() == len(payload.pax.to_bytes())


def test_restore_requires_a_persistence_backend():
    with pytest.raises(ValueError):
        Session.restore(HailConfig())


def test_checkpoint_requires_a_persistence_backend():
    session = Session.deploy(nodes=2, hail_config=HailConfig())
    with pytest.raises(RuntimeError):
        session.checkpoint()
