"""Zone pruning hands the filter kernel per-row flags: a call-count guard.

On one-row partitions a zone is ``(v, v)``, so a query's zone pruning reads its flags straight
off the column — in numpy on a block this wide — and builds no ``(min, max)`` pairs; the
executor still makes exactly one ``kernels.filter_ranges`` call per executed block (the
function a trace times as ``engine.filter_kernel``).  The guard is a count, not a stopwatch:
it fails on code that pairs the column, skips the numpy flags or calls the kernel per window.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine import kernels
from repro.hail.config import HailConfig
from repro.hail.system import HailSystem
from repro.mapreduce.counters import Counters
from repro.query.predicate import Operator, Predicate, Query

_PATH = "/flags/scan"
_ROWS_PER_BLOCK = 500


@pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy not installed")
def test_a_one_row_zone_scan_builds_no_pairs_and_calls_the_kernel_once_per_block(monkeypatch):
    config = HailConfig.for_attributes(("f2",), functional_partition_size=1).with_zone_maps()
    system = HailSystem(
        Cluster.homogeneous(4, seed=3),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    rows = SyntheticGenerator(seed=7).generate(4 * _ROWS_PER_BLOCK)
    system.upload(_PATH, rows, SYNTHETIC_SCHEMA, rows_per_block=_ROWS_PER_BLOCK)
    namenode = system.hdfs.namenode
    blocks = namenode.file_blocks(_PATH)
    replicas = [
        system.hdfs.datanode(datanode_id).replica(block_id).payload
        for block_id in blocks
        for datanode_id in namenode.replica_infos(block_id)
    ]
    assert {payload.num_records for payload in replicas} == {_ROWS_PER_BLOCK}

    kernel_calls, numpy_flags = [], []
    filter_ranges, zone_flags_numpy = kernels.filter_ranges, kernels._zone_flags_numpy

    def counting_kernel(*args):
        kernel_calls.append(args[3:5])
        return filter_ranges(*args)

    def counting_flags(*args):
        flags = zone_flags_numpy(*args)
        numpy_flags.append(flags is not None)
        return flags

    monkeypatch.setattr(kernels, "filter_ranges", counting_kernel)
    monkeypatch.setattr(kernels, "_zone_flags_numpy", counting_flags)
    query = Query(
        name="flags",
        predicate=Predicate.comparison("f1", Operator.LT, VALUE_RANGE // 10),
        projection=("f1", "f3"),
        description="",
    )
    with kernels.use_backend("numpy"):
        result = system.run_query(query, _PATH)

    expected = sorted((row[0], row[2]) for row in rows if row[0] < VALUE_RANGE // 10)
    assert sorted(result.records) == expected and expected
    counters = result.job.counters
    assert counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == 0
    assert counters.value(Counters.ZONE_MAP_PRUNED_BYTES) > 0
    # One kernel call per block, over its whole lookup window; one numpy flag pass per block.
    assert kernel_calls == [(0, _ROWS_PER_BLOCK)] * len(blocks)
    assert numpy_flags == [True] * len(blocks)
    # No replica holds a (min, max) pair: one-row zones were read off the column.
    assert all(payload.zone_map.partition_zones == {} for payload in replicas)
