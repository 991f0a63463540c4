"""Adaptive-indexing benchmark: LIAH-style convergence of a repeated workload.

One single-attribute query (Syn-Q1c of Table 1) repeats against a HAIL deployment uploaded with
zero indexes and adaptive indexing on: every round, half of the still-unindexed blocks (the
offer rate) pay their scan forward by building a clustered index on the filter attribute.  Two
stateless deployments of the same data are the reference lines: one indexed at upload time
(the convergence target) and one with zero indexes and adaptivity off (the scan baseline).
"""

from repro.experiments.deployments import deploy_hail
from repro.mapreduce.counters import Counters
from repro.workloads.synthetic_queries import SYNTHETIC_FILTER_ATTRIBUTE
from repro.workloads.workload import synthetic_workload


def test_adaptive_convergence(config):
    """Full scans pay forward: with zero upload-time indexes, repeating one single-attribute
    query converges the deployment to fully indexed HAIL — per-query runtime drops
    monotonically (within noise) to within 10% of the upload-time-indexed baseline."""
    workload = synthetic_workload()
    path, attribute = workload.path, SYNTHETIC_FILTER_ATTRIBUTE
    query = next(q for q in workload.queries if q.name == "Syn-Q1c")
    scan_config = config.hail_config(splitting=False)
    adaptive = deploy_hail(config, scan_config.with_adaptive(True, offer_rate=0.5))
    indexed = deploy_hail(config, config.hail_config((attribute,), splitting=False))
    indexed = indexed.run_query(query, path)
    scan = deploy_hail(config, scan_config).run_query(query, path)
    assert scan.sorted_records() == indexed.sorted_records()

    rounds, coverage, builds = [], [], []
    for _ in range(8):
        rounds.append(adaptive.run_query(query, path))
        assert rounds[-1].sorted_records() == indexed.sorted_records()
        coverage.append(adaptive.index_coverage(path, attribute))
        builds.append(rounds[-1].job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED))

    # Round 0 pays the indexing penalty on top of its scans: at or above the scan baseline.
    assert rounds[0].runtime_s >= scan.runtime_s
    assert coverage[0] > 0.0 and builds[0] > 0

    # Convergence is monotone within noise: each round is no slower than the previous one.
    for previous, current in zip(rounds, rounds[1:]):
        assert current.runtime_s <= previous.runtime_s * 1.005
    assert coverage == sorted(coverage)

    # The workload converges: near-full coverage, runtime within 10% of fully indexed HAIL,
    # and RecordReader time indistinguishable from the upload-time index.
    final = rounds[-1]
    assert coverage[-1] >= 0.9
    assert final.runtime_s <= 1.1 * indexed.runtime_s
    assert final.record_reader_s <= 1.1 * indexed.record_reader_s
    assert final.runtime_s < scan.runtime_s

    # Every block is built at most once across the whole workload.
    assert sum(builds) <= config.num_blocks
