"""Fingerprint of what the map tasks hand on: every pair, in order, of every query kind.

The workload of ``tests/test_block_batches.py`` (scans down every reader path, group-bys with
and without combiner, merge and hash joins) plus one top-k per system runs on HAIL, Hadoop++
and Hadoop, under both kernel backends, once with the systems' ``map_batch`` and once with
it cleared (the per-record ``mapper`` alone).  For each query a row records every accepted
attempt's ``task.output``, the job's ``output``, its counter bag, ``runtime_s`` and the
answer.  The digest of all rows is pinned, so a change to how a scan hands its rows to its
consumer (a plain scan's ``(None, row)`` pairs, group-by's partials, a join side's keyed
rows) that moves a single pair or counter fails here, even when every answer still matches.
"""

from __future__ import annotations

import hashlib

import pytest
from test_block_batches import _BACKENDS, _PATH, _deploy, _workload

from repro.api import Session, col
from repro.datagen.synthetic import VALUE_RANGE
from repro.engine import kernels

#: Digest of every row below, captured before scans handed rows to their consumers.
EXPECTED_DIGEST = "35bad217302691be"
EXPECTED_QUERIES = 36


def _per_record(session: Session) -> Session:
    """Clear ``map_batch`` on every jobconf the session's systems build."""
    for name in session.system_names:
        system = session.system(name)

        def without_batch(*args, make=system._make_jobconf):
            jobconf = make(*args)
            jobconf.map_batch = None
            return jobconf

        system._make_jobconf = without_batch
    return session


def _queries(session: Session):
    yield from _workload(session)
    data = session.dataset(_PATH)
    for name in session.system_names:
        ranked = data.where(col("f1") < VALUE_RANGE // 2).order_by("f3", descending=True)
        yield "top-k", name, ranked.limit(7).named(f"topk-{name}")


def _fingerprint(session: Session) -> list:
    rows = []
    for label, name, dataset in _queries(session):
        result = dataset.collect(system=name)
        job = result.job
        rows.append(
            (
                label,
                name,
                [attempt.result.output for attempt in job.task_results],
                job.output,
                sorted((counter, repr(value)) for counter, value in job.counters.as_dict().items()),
                repr(job.runtime_s),
                result.records,
            )
        )
    return rows


@pytest.mark.parametrize("per_record", [False, True], ids=["batched", "per-record"])
@pytest.mark.parametrize("backend", _BACKENDS)
def test_map_output_fingerprint_is_unchanged(backend, per_record):
    with kernels.use_backend(backend):
        session = _per_record(_deploy()) if per_record else _deploy()
        rows = _fingerprint(session)
    assert len(rows) == EXPECTED_QUERIES
    assert all(row[3] for row in rows if row[0] != "nothing")  # every other query answers
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == EXPECTED_DIGEST
