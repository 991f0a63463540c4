"""Reader → task → job telemetry: what a reader counts per block is what the job reports.

A record reader counts each executed block into a counter bag of its own and the map task
merges that bag into the attempt's (there is no per-counter mirror field in between).  These
cases hold the relay to its invariants on the ``busy_session`` deployment (``conftest.py``),
which has everything that feeds it switched on — zone maps with split pruning, adaptive
indexing with multi-attribute builds, the auto-tuner with per-attribute ledgers — and ran
two-attribute conjunctive filters.
"""

from __future__ import annotations

import math

from repro.api import col
from repro.datagen.synthetic import VALUE_RANGE
from repro.engine.access_path import AccessPath
from repro.hail.record_reader import HailRecordReader
from repro.mapreduce.counters import Counters
from repro.mapreduce.split import InputSplit

_PATH = "/busy/synthetic"  # uploaded by the ``busy_session`` fixture

#: The counters incremented with ``attribute=`` (base total plus ``NAME[attr]`` slice).
_SLICED_COUNTS = (
    Counters.ADAPTIVE_INDEXES_COMMITTED,
    Counters.ADAPTIVE_INDEX_USES,
    Counters.SCAN_FALLBACK_BLOCKS,
)
_SLICED_SECONDS = (Counters.ADAPTIVE_BUILD_SECONDS, Counters.ADAPTIVE_SAVED_SECONDS)


def test_attribute_slices_sum_to_their_base_in_every_job(busy_session):
    _, jobs = busy_session
    sliced_jobs = 0
    for attributes, result in jobs:
        if not attributes:
            continue  # the unfiltered operator queries: counted, never sliced (last case)
        counters = result.job.counters
        for base in _SLICED_COUNTS:
            slices = counters.by_attribute(base)
            assert set(slices) <= attributes, (base, slices)
            assert sum(slices.values()) == counters.value(base), base
        for base in _SLICED_SECONDS:
            slices = counters.by_attribute(base)
            assert set(slices) <= attributes, (base, slices)
            assert math.isclose(sum(slices.values()), counters.value(base), abs_tol=1e-12), base
        sliced_jobs += bool(counters.by_attribute(Counters.ADAPTIVE_INDEX_USES))
    assert sliced_jobs > 5  # the workload did converge: the invariant was not vacuous


def test_session_totals_are_the_sum_of_the_job_bags(busy_session):
    session, jobs = busy_session
    stats = session.stats()
    for base in _SLICED_COUNTS:
        assert stats.counter(base) == sum(result.job.counters.value(base) for _, result in jobs)
        assert stats.counter(base) > 0
    assert set(stats.counter_by_attribute(Counters.ADAPTIVE_INDEX_USES)) <= {"f1", "f2", "f3"}
    assert stats.zone_map_skipped_blocks > 0 and stats.zone_map_pruned_bytes > 0.0


def test_a_hand_driven_reader_counts_exactly_what_its_block_plans_say(busy_session):
    session, _ = busy_session
    system = session.system()
    namenode = system.hdfs.namenode
    blocks = tuple(namenode.file_blocks(_PATH))
    query = (
        session.dataset(_PATH)
        .where((col("f1") < VALUE_RANGE // 2) & (col("f2") < VALUE_RANGE // 2))
        .select("f1")
        .to_query()
    )
    jobconf = system._scan_jobconf(query, _PATH)
    split = InputSplit(0, _PATH, blocks, (0,))
    reader = HailRecordReader(split, system.hdfs, system.cost, 0, jobconf)
    emitted = sum(1 for _ in reader)

    plans = reader.block_plans
    assert [plan.block_id for plan in plans] == list(blocks)
    index_scanned = [plan for plan in plans if plan.uses_index]
    zone_skipped = [plan for plan in plans if plan.access_path is AccessPath.ZONE_MAP_SKIP]
    fallbacks = len(plans) - len(index_scanned) - len(zone_skipped)
    assert index_scanned and zone_skipped and fallbacks  # all three kinds in one split
    adaptive_uses = [
        plan
        for plan in index_scanned
        if namenode.replica_info(plan.block_id, plan.datanode_id).is_adaptive
    ]

    counted = reader.counters
    assert counted.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == len(zone_skipped)
    assert counted.value(Counters.SCAN_FALLBACK_BLOCKS) == fallbacks
    assert counted.by_attribute(Counters.SCAN_FALLBACK_BLOCKS) == {"f1": fallbacks}
    assert counted.value(Counters.ADAPTIVE_INDEX_USES) == len(adaptive_uses) > 0
    uses_by_attribute = counted.by_attribute(Counters.ADAPTIVE_INDEX_USES)
    assert sum(uses_by_attribute.values()) == len(adaptive_uses)
    assert set(uses_by_attribute) == {plan.attribute for plan in adaptive_uses}
    assert counted.value(Counters.ZONE_MAP_PRUNED_BYTES) > 0
    # The reader contract the task reads beside the bag.
    assert reader.used_index and reader.records_emitted == emitted > 0
    assert len(reader.adaptive_builds) == sum(plan.builds_index for plan in plans)
    # The bag holds the reader's own telemetry only, and no key for a zero — except saved
    # seconds, which exist (possibly 0.0) wherever a use was counted.
    assert {name.partition("[")[0] for name, _ in counted} == {
        Counters.ADAPTIVE_INDEX_USES,
        Counters.ADAPTIVE_SAVED_SECONDS,
        Counters.SCAN_FALLBACK_BLOCKS,
        Counters.ZONE_MAP_SKIPPED_BLOCKS,
        Counters.ZONE_MAP_PRUNED_BYTES,
    }
    for name, value in counted:
        assert value > 0 or name.startswith(Counters.ADAPTIVE_SAVED_SECONDS), name
    assert set(counted.by_attribute(Counters.ADAPTIVE_SAVED_SECONDS)) == set(uses_by_attribute)


def test_an_unfiltered_scan_counts_fallbacks_without_a_slice(busy_session):
    """A selection-free scan has no filter attribute: fallbacks are counted, never sliced."""
    session, _ = busy_session
    system = session.system()
    blocks = tuple(system.hdfs.namenode.file_blocks(_PATH))[:2]
    query = session.dataset(_PATH).select("f4").to_query()
    jobconf = system._scan_jobconf(query, _PATH)
    split = InputSplit(0, _PATH, blocks, (0,))
    reader = HailRecordReader(split, system.hdfs, system.cost, 0, jobconf)
    assert sum(1 for _ in reader) == 200
    assert dict(reader.counters) == {Counters.SCAN_FALLBACK_BLOCKS: 2}
