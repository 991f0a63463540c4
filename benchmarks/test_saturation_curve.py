"""Saturation benchmark: mixed-tenant throughput/latency vs. the concurrency knob.

A two-tenant backlog of :data:`NUM_QUERIES` mixed filters is drained on one fresh shared
deployment per point of :data:`LEVELS`; ``HailConfig.concurrency.max_concurrent_jobs`` is the
only knob that differs.  A query's latency is measured on the shared batch timeline, queueing
included: serially that is the prefix sum of the runtimes before it, concurrently
``runtime_s`` already is its finish time on the shared clock.  Every concurrent level must
(a) leave every query's answer bit-identical to the serial baseline, (b) genuinely interleave
both tenants' jobs (strict window overlap, ``SCHED_QUEUE_JOBS_INTERLEAVED``), and (c) beat the
serial makespan — interleaved map phases fill the slots a narrow job leaves idle.
"""

import itertools

from conftest import BACKLOG_ATTRIBUTES, drain_backlog, percentile

from repro.hail.config import HailConfig
from repro.mapreduce.counters import Counters

#: Backlog size, and the concurrency levels swept (the serial baseline first).
NUM_QUERIES, LEVELS = 36, (1, 2, 4, 8)


def test_saturation_curve(config):
    """Throughput up, makespan down, answers unchanged, both tenants interleaved."""
    # The serial point is the latency baseline and the reference answers, so it comes first.
    assert LEVELS[0] == 1
    assert LEVELS[1:]
    serial = None
    speedups = []
    for level in LEVELS:
        results, sessions = drain_backlog(
            config,
            HailConfig.for_attributes(
                BACKLOG_ATTRIBUTES, functional_partition_size=1
            ).with_concurrency(max_jobs=level),
            NUM_QUERIES,
        )
        runtimes = [result.runtime_s for result in results]
        latencies = list(itertools.accumulate(runtimes)) if level == 1 else runtimes
        makespan = max(latencies)
        answers = [result.sorted_records() for result in results]
        interleaved = sum(
            int(result.job.counters.value(Counters.SCHED_QUEUE_JOBS_INTERLEAVED))
            for result in results
        )
        tenants_interleaved = sum(
            session.stats().counter(Counters.SCHED_QUEUE_JOBS_INTERLEAVED) > 0
            for session in sessions
        )
        if serial is None:
            serial = answers, makespan, percentile(latencies, 0.99)
            # The serial baseline by definition interleaves nothing.
            assert interleaved == 0
            assert tenants_interleaved == 0
            continue
        serial_answers, serial_makespan, serial_p99 = serial

        # Fidelity: interleaving may never change an answer, per query index, bit for bit.
        assert answers == serial_answers
        # Genuine multi-tenancy: both tenants' jobs strictly overlap other in-flight work.
        assert tenants_interleaved >= 2
        assert interleaved > 0
        # Concurrency wins: higher throughput, shorter makespan, every query done sooner at
        # the tail than the serial pipeline's last query.
        assert len(results) / makespan > len(results) / serial_makespan
        assert makespan < serial_makespan
        speedups.append(serial_makespan / makespan)
        assert speedups[-1] > 1.0
        assert percentile(latencies, 0.99) <= serial_p99
        assert percentile(latencies, 0.50) <= percentile(latencies, 0.99)

    # This assertion is the saturation floor: best concurrent makespan >= 1.5x serial.
    assert max(speedups) >= 1.5
