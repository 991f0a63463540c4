"""An adaptive job's bookkeeping costs what the job changed: call counts, not a stopwatch.

Adaptive indexing writes ``Dir_rep`` on every job, and both consumers of that metadata work in
proportion to the write:

- the next split phase plans again only the blocks the job's commits wrote (each block carries
  the namenode epoch of its last layout write, ``NameNode.block_epoch``), and hands out what a
  format without a memo plans and cuts;
- the journal sync of one adaptive commit encodes one ``Dir_rep`` entry and writes one
  ``dir_rep`` row: the block's other replicas are the objects the journal last committed,
  also right after a restored backend's ``checkpoint()`` reset its record of them.
"""

from __future__ import annotations

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import USERVISITS_SCHEMA
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.hdfs.namenode import NameNode
from repro.mapreduce.counters import Counters
from repro.persist import codec

import test_journal_writes as journal
from test_split_memo import (
    _BOB_INDEXES,
    _PATH,
    _ROWS,
    _UNINDEXED,
    _fresh_equal,
    _split_phase_calls,
)


def _layout(namenode, block_id: int) -> tuple:
    """What a block plan reads of one block: hosts, their ``Dir_rep`` entries, tombstones."""
    hosts = tuple(namenode.block_datanodes(block_id, alive_only=False))
    infos = tuple(namenode.replica_info(block_id, host) for host in hosts)
    return hosts, infos, namenode.block_eviction_tombstones(block_id)


def _written(before: tuple, after: tuple) -> bool:
    """True unless ``after`` holds the very same hosts, entries and tombstones as ``before``."""
    return (
        before[0] != after[0]
        or any(old is not new for old, new in zip(before[1], after[1]))
        or before[2] != after[2]
    )


def test_the_job_after_a_commit_plans_only_the_blocks_it_wrote(tmp_path, monkeypatch):
    config = (
        HailConfig.for_attributes(_BOB_INDEXES)
        .with_adaptive(offer_rate=0.5)
        .with_persistence("sqlite", directory=str(tmp_path))
    )
    system = HailSystem(
        Cluster.homogeneous(4, seed=5),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    system.upload(_PATH, _ROWS, USERVISITS_SCHEMA, rows_per_block=25)
    namenode = system.hdfs.namenode
    block_ids = namenode.file_blocks(_PATH)
    assert len(block_ids) == 32
    _fresh_equal(system, _UNINDEXED)
    before = {block_id: _layout(namenode, block_id) for block_id in block_ids}

    result = system.run_query(_UNINDEXED, _PATH)
    assert result.job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED) > 0
    written = [b for b in block_ids if _written(before[b], _layout(namenode, b))]
    assert 0 < len(written) < len(block_ids)
    # A memo emptied by any epoch move would plan all 32 blocks here.
    assert _split_phase_calls(system, _UNINDEXED, monkeypatch) == (len(written), len(written))
    _fresh_equal(system, _UNINDEXED)
    # While the epoch stands, a split phase does not even read the blocks' stamps.
    stamps_read = []
    block_epoch = NameNode.block_epoch
    monkeypatch.setattr(
        NameNode, "block_epoch", lambda self, b: stamps_read.append(b) or block_epoch(self, b)
    )
    assert _split_phase_calls(system, _UNINDEXED, monkeypatch) == (0, 0)
    assert stamps_read == []
    system.hdfs.persist.close()


def test_a_sync_after_one_adaptive_commit_encodes_and_writes_one_dir_rep_row(
    tmp_path, monkeypatch
):
    system = journal._fresh(journal._config("sqlite", tmp_path))
    journal._upload(system)
    persist = system.hdfs.persist
    probe = journal.WriteProbe(monkeypatch)
    probe.watch(persist)
    encoded = [0]
    encode = codec.encode_replica_info

    def counting_encode(info):
        encoded[0] += 1
        return encode(info)

    monkeypatch.setattr(codec, "encode_replica_info", counting_encode)
    real_sync = persist.sync_block
    per_commit: list[tuple[int, int]] = []

    def counted_sync(hdfs, block_id, site):
        probe.reset()
        encoded[0] = 0
        real_sync(hdfs, block_id, site=site)
        if site == "mid_adaptive_commit":
            per_commit.append((probe.rows("dir_rep"), encoded[0]))

    persist.sync_block = counted_sync
    system.run_query(journal._query(), journal._PATH)
    # A whole-block directory write would encode and write all three replicas' rows: (3, 3).
    assert per_commit and per_commit == [(1, 1)] * len(per_commit)
    persist.close()


def test_a_checkpoint_resets_the_row_record_of_a_restored_backend(tmp_path, monkeypatch):
    """A restored backend has no record of any block; ``checkpoint()`` rewrites the journal
    and resets the record to what it wrote, so the next commits are deltas again and the
    journal still equals a full capture."""
    config = journal._config("sqlite", tmp_path)
    system = journal._fresh(config)
    journal._upload(system)
    system.run_query(journal._query(), journal._PATH)
    system.hdfs.persist.close()

    restored = journal._restore(config)
    persist = restored.hdfs.persist
    persist.checkpoint(restored)
    probe = journal.WriteProbe(monkeypatch)
    probe.watch(persist)
    result = restored.run_query(journal._query("f2"), journal._PATH)
    commits = int(result.job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED))
    assert commits > 0
    assert probe.rows("dir_rep") == commits
    # Usage rows are exact only for the blocks a sync wrote since the last touch.
    loaded = journal._plain(persist.load_state())["blocks"]
    captured = journal._plain(journal.checkpoint_state(restored))["blocks"]
    assert journal._without_usage(loaded) == journal._without_usage(captured)
    persist.close()
