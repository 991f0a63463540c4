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
from repro.cluster import Cluster
from repro.datagen.uservisits import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine.lifecycle import AdaptiveTuner
from repro.hail import HailSystem
from repro.hail.config import HailConfig
from repro.persist import JournalCorruptError, SqliteBackend
from repro.persist.codec import encode_tuner
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


@pytest.mark.parametrize("backend", ("sqlite",))
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


@pytest.mark.parametrize("backend", ("sqlite",))
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


# --------------------------------------------------------------------------- tuner state
def _lifecycle_config(directory, auto_tune: bool) -> HailConfig:
    """Eviction on (so the deployment has a lifecycle manager), auto-tune as given."""
    return (
        HailConfig.for_attributes((), functional_partition_size=1)
        .with_adaptive(True, offer_rate=0.5)
        .with_lifecycle(eviction=True, auto_tune=auto_tune)
        .with_persistence("sqlite", directory=str(directory))
    )


def _tuned_run(session: Session, queries) -> list[tuple]:
    """Each query's records and runtime, and the tuner state it left for the next job."""
    return [
        _run_workload(session, [query])[0] + (encode_tuner(session.system().lifecycle.tuner),)
        for query in queries
    ]


def _journal_first_half(directory, auto_tune: bool, tuner_payload=None) -> dict:
    """Run the first half, checkpoint, kill; returns the tuner state the journal holds.

    ``tuner_payload`` maps the journaled tuner payload to the one left in the journal (what
    an older version of the journal wrote for the same state)."""
    session = Session.deploy(nodes=4, hail_config=_lifecycle_config(directory, auto_tune))
    session.upload(_PATH, _records(), USERVISITS_SCHEMA, rows_per_block=100)
    _run_workload(session, bob_logical_queries()[:_SPLIT])
    session.checkpoint()
    persist = session.system().hdfs.persist
    if tuner_payload is not None:
        persist.sync_control({"tuner": tuner_payload(persist.load_state()["control"]["tuner"])})
    journaled = persist.load_state()["control"]["tuner"]
    persist.close()
    return journaled


def test_a_restore_without_auto_tune_installs_no_journaled_tuner(tmp_path):
    journaled = _journal_first_half(tmp_path, auto_tune=True)
    assert journaled["budget"] is not None  # the tuner sized a budget before the kill

    restored = Session.restore(_lifecycle_config(tmp_path, auto_tune=False), nodes=4)
    system = restored.system()
    assert system.lifecycle is not None and system.lifecycle.tuner is None
    assert restored.stats().tuner_offer_rate is None
    # The next job runs the config's static rate, unbudgeted, without measuring savings.
    jobconf = system._scan_jobconf(bob_logical_queries()[_SPLIT].compile(), _PATH)
    context = jobconf.input_format.adaptive
    assert (context.offer_rate, context.budget, context.measure_savings) == (0.5, None, False)


def test_a_restore_with_auto_tune_over_a_tunerless_journal_starts_a_fresh_tuner(tmp_path):
    assert _journal_first_half(tmp_path, auto_tune=False) is None
    restored = Session.restore(_lifecycle_config(tmp_path, auto_tune=True), nodes=4)
    assert restored.system().lifecycle.tuner == AdaptiveTuner(offer_rate=0.5)


def test_a_journal_from_before_the_ledger_split_went_restores_and_tunes_exactly(tmp_path):
    queries = bob_logical_queries()
    reference = Session.deploy(
        nodes=4, hail_config=_lifecycle_config(tmp_path / "reference", auto_tune=True)
    )
    reference.upload(_PATH, _records(), USERVISITS_SCHEMA, rows_per_block=100)
    expected = _tuned_run(reference, queries)
    reference.system().hdfs.persist.close()

    journaled = _journal_first_half(
        tmp_path / "interrupted",
        auto_tune=True,
        tuner_payload=lambda payload: {**payload, "per_attribute": False, "ledgers": {}},
    )
    assert journaled["per_attribute"] is False and journaled["ledgers"] == {}
    restored = Session.restore(
        _lifecycle_config(tmp_path / "interrupted", auto_tune=True), nodes=4
    )
    assert encode_tuner(restored.system().lifecycle.tuner) == expected[_SPLIT - 1][2]
    assert _tuned_run(restored, queries[_SPLIT:]) == expected[_SPLIT:]


@pytest.mark.parametrize(
    "key, edit",
    [
        ("per_attribute", {"per_attribute": True, "ledgers": {}}),
        ("ledgers", {"per_attribute": False, "ledgers": {"sourceIP": {"offer_rate": 0.5}}}),
        ("adaptive_budget", {"adaptive_budget": 4}),
    ],
)
def test_a_journaled_tuner_that_cannot_restore_exactly_is_refused_by_name(tmp_path, key, edit):
    _journal_first_half(tmp_path, auto_tune=True, tuner_payload=lambda p: {**p, **edit})
    with pytest.raises(JournalCorruptError, match=repr(key)):
        Session.restore(_lifecycle_config(tmp_path, auto_tune=True), nodes=4)


def test_with_persistence_accepts_sqlite_with_a_directory_and_off(tmp_path):
    # The removed in-process backend is refused by name, with the accepted values.
    with pytest.raises(ValueError, match="sqlite"):
        HailConfig().with_persistence('memory', directory=str(tmp_path))
    with pytest.raises(ValueError, match="directory"):
        HailConfig().with_persistence("sqlite")
    on = HailConfig().with_persistence("sqlite", directory=str(tmp_path))
    assert on.persistence_dir == str(tmp_path)
    assert on.with_persistence("off").persistence_dir is None


def test_persistence_dir_alone_switches_the_journal_on(tmp_path):
    config = HailConfig(persistence_dir=str(tmp_path))
    journaled = HailSystem(Cluster.homogeneous(2, seed=1), config=config)
    assert isinstance(journaled.hdfs.persist, SqliteBackend)
    assert (tmp_path / "namenode.db").exists()
    journaled.hdfs.persist.close()
    plain = HailSystem(Cluster.homogeneous(2, seed=1), config=HailConfig())
    assert plain.hdfs.persist is None


def test_restore_requires_a_persistence_backend():
    with pytest.raises(ValueError):
        Session.restore(HailConfig())


def test_checkpoint_requires_a_persistence_backend():
    session = Session.deploy(nodes=2, hail_config=HailConfig())
    with pytest.raises(RuntimeError):
        session.checkpoint()
