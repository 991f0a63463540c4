"""Restore builds every block from its CRC-checked replica payloads, and nothing else.

The journal holds each block's rows only inside its replicas (every HAIL replica holds all of
them, sorted its own way), so ``restore_system`` (``src/repro/persist/state.py``):

- **decodes once per distinct payload** — rows whose ``crcs_blob`` and ``payload_blob`` are
  equal share one ``PaxBlock``, as they did before the kill — and installs it as it stands,
  rebuilding only the sparse index: no pivot (``PaxBlock.from_records``), no re-upload
  (``HailBlock.build``) and no transpose (``PaxBlock.records``): the ``LogicalBlock`` is
  metadata, its row count read off the journal's ``blocks`` row;
- **restores exactly when no replica keeps upload order**: the rows come back as a multiset,
  every replica byte for byte, and probe answers bit for bit;
- **refuses by name** a replica whose row count is not the block's or whose "sorted" column is
  not sorted, and a block with no replica to take its rows from.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.hail.system import HailSystem
from repro.layouts.pax import PaxBlock
from repro.persist import JournalCorruptError, restore_system
from repro.query.predicate import Operator, Predicate, Query
from replica_rows import replica_rows

_PATH = "/restore/synthetic"


def _config(directory, index_attributes=(), partition_size=1) -> HailConfig:
    config = HailConfig(
        index_attributes=index_attributes,
        replication=3,
        functional_partition_size=partition_size,
        splitting_policy=False,
    )
    return config.with_adaptive(True, offer_rate=1.0).with_persistence(
        "sqlite", directory=str(directory)
    )


def _fresh(config: HailConfig) -> HailSystem:
    cost = CostModel(CostParameters(enable_variance=False, data_scale=5000.0))
    return HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=cost)


def _rows() -> list[tuple]:
    return SyntheticGenerator(seed=3).generate(800)


def _query(attribute: str) -> Query:
    return Query(
        name=f"restore-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=None,
        description="",
    )


def _journaled(config: HailConfig, *attributes: str) -> HailSystem:
    """Upload, run one adaptive pass per attribute, close the journal: the dead deployment."""
    system = _fresh(config)
    system.upload(_PATH, _rows(), SYNTHETIC_SCHEMA, rows_per_block=100)
    for attribute in attributes:
        system.run_query(_query(attribute), _PATH)
    assert system.adaptive_replica_count(_PATH) > 0
    return system


def _counted(monkeypatch, owner, name: str, calls: dict) -> None:
    """Count calls of ``owner.name`` (a method or a classmethod) into ``calls[name]``."""
    real = getattr(owner, name)
    calls[name] = 0
    is_classmethod = isinstance(owner.__dict__[name], classmethod)

    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args[is_classmethod:], **kwargs)

    monkeypatch.setattr(owner, name, classmethod(counting) if is_classmethod else counting)


# --------------------------------------------------------------------------- call counts
def test_restore_decodes_each_distinct_payload_once_and_never_re_uploads(
    tmp_path, monkeypatch
):
    config = _config(tmp_path)
    _journaled(config, "f1").hdfs.persist.close()
    restored = _fresh(config)
    state = restored.hdfs.persist.load_state()
    distinct = {
        block_id: {
            (stored["crcs_blob"], stored["payload_blob"]) for stored in entry["replicas"].values()
        }
        for block_id, entry in state["blocks"].items()
    }
    replicas = sum(len(entry["replicas"]) for entry in state["blocks"].values())
    # Unsorted upload positions share one payload; an adaptive build adds a second.
    assert sum(map(len, distinct.values())) < replicas
    assert any(len(payloads) > 1 for payloads in distinct.values())

    calls: dict[str, int] = {}
    _counted(monkeypatch, PaxBlock, "from_records", calls)
    _counted(monkeypatch, PaxBlock, "from_bytes", calls)
    _counted(monkeypatch, PaxBlock, "records", calls)
    _counted(monkeypatch, HailBlock, "build", calls)
    restore_system(restored, state)
    assert calls == {
        "from_records": 0,
        "from_bytes": sum(map(len, distinct.values())),
        "records": 0,
        "build": 0,
    }
    # Replicas restored from equal rows share one PaxBlock, as they did before the kill.
    for block_id, payloads in distinct.items():
        hosts = restored.hdfs.namenode.block_datanodes(block_id, alive_only=False)
        paxes = {id(restored.hdfs.datanode(dn).replica(block_id).payload.pax) for dn in hosts}
        assert len(paxes) == len(payloads)
    restored.hdfs.persist.close()


# --------------------------------------------------------------------------- row order
def test_a_deployment_with_every_replica_sorted_restores_exactly(tmp_path):
    config = _config(tmp_path, index_attributes=("f1", "f2", "f3"), partition_size=4)
    system = _journaled(config, "f4")
    namenode = system.hdfs.namenode
    blocks = namenode.file_blocks(_PATH)
    before = {}
    for block_id in blocks:
        for datanode_id in namenode.block_datanodes(block_id, alive_only=False):
            payload = system.hdfs.datanode(datanode_id).replica(block_id).payload
            assert payload.index is not None  # no replica keeps the upload order
            before[block_id, datanode_id] = (
                payload.sort_attribute,
                payload.index.partition_keys,
                payload.pax.to_bytes(),
            )
    system.hdfs.persist.checkpoint(system)
    system.hdfs.persist.close()
    system.hdfs.persist = None  # the original lives on unjournaled, as the reference

    restored = _fresh(config)
    restore_system(restored, restored.hdfs.persist.load_state())
    assert sorted(replica_rows(restored.hdfs, _PATH), key=repr) == sorted(_rows(), key=repr)
    after = {}
    for block_id in restored.hdfs.namenode.file_blocks(_PATH):
        for datanode_id in restored.hdfs.namenode.block_datanodes(block_id, alive_only=False):
            payload = restored.hdfs.datanode(datanode_id).replica(block_id).payload
            after[block_id, datanode_id] = (
                payload.sort_attribute,
                payload.index.partition_keys,
                payload.pax.to_bytes(),
            )
    assert after == before
    for attribute in ("f1", "f2", "f3", "f4", "f5"):
        expected = system.run_query(_query(attribute), _PATH)
        result = restored.run_query(_query(attribute), _PATH)
        assert result.sorted_records() == expected.sorted_records()
        assert result.runtime_s == expected.runtime_s
    restored.hdfs.persist.close()


# --------------------------------------------------------------------------- refusal
@pytest.fixture
def sorted_journal(tmp_path):
    """A closed journal of the every-replica-sorted deployment, and its config."""
    config = _config(tmp_path, index_attributes=("f1", "f2", "f3"), partition_size=4)
    system = _fresh(config)
    system.upload(_PATH, _rows(), SYNTHETIC_SCHEMA, rows_per_block=100)
    system.hdfs.persist.close()
    return config


def _refusal(config: HailConfig, edit) -> tuple[str, int, int]:
    """Restore the journal after ``edit(state)``: the refusal's message, and the block and
    datanode the edit damaged (the edit returns the block id; the datanode is its first)."""
    reader = _fresh(config)
    state = reader.hdfs.persist.load_state()
    reader.hdfs.persist.close()
    block_id = edit(state)
    datanode_id = state["blocks"][block_id]["dir_block"][:1] or [None]
    target = _fresh(config)
    try:
        with pytest.raises(JournalCorruptError) as excinfo:
            restore_system(target, state)
    finally:
        target.hdfs.persist.close()
    return str(excinfo.value), block_id, datanode_id[0]


def test_a_replica_whose_sorted_column_is_unsorted_refuses_by_name(sorted_journal):
    def swap_payloads(state):
        block_id = min(state["blocks"])
        entry = state["blocks"][block_id]
        first, second = (entry["replicas"][dn] for dn in entry["dir_block"][:2])
        for key in ("payload_blob", "crcs_blob"):
            first[key], second[key] = second[key], first[key]
        return block_id

    message, block_id, datanode_id = _refusal(sorted_journal, swap_payloads)
    assert f"block {block_id} " in message and f"datanode {datanode_id}" in message
    assert "not sorted" in message


def test_a_replica_of_another_row_count_refuses_by_name(sorted_journal):
    def drop_a_row(state):
        block_id = max(state["blocks"])
        state["blocks"][block_id]["num_records"] -= 1
        return block_id

    message, block_id, datanode_id = _refusal(sorted_journal, drop_a_row)
    assert f"block {block_id} " in message and f"datanode {datanode_id}" in message
    assert "100 rows where the block has 99" in message


def test_a_block_without_a_replica_refuses_by_name(sorted_journal):
    def drop_the_replicas(state):
        block_id = min(state["blocks"])
        state["blocks"][block_id]["dir_block"] = []
        state["blocks"][block_id]["replicas"] = {}
        return block_id

    message, block_id, _ = _refusal(sorted_journal, drop_the_replicas)
    assert f"block {block_id}:" in message and "no journaled replica" in message
