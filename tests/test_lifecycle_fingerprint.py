"""Fingerprint of the post-job adaptive lifecycle: tuner, eviction, balancer, journal.

Four scenarios drive the lifecycle manager through real jobs:

- **(a)** eviction under a tight per-node budget plus per-attribute auto-tuning, journaled to
  the in-memory backend, while the workload cycles over three filter attributes;
- **(b)** convergence, the heaviest node killed, an eviction storm, recovery by the placement
  balancer's re-replication (four rebuilds per job, scan builds frozen), then a second storm
  that deletes the rebuilt extra copies;
- **(c)** skew repair: convergence with one node dead, the node revived, and the balancer
  migrating adaptive replicas onto it;
- **(d)** two tenants sharing one deployment's tuner through a ``max_jobs=2`` batch.

After every job a row records the job's runtime and nonzero counters, the tuner's knobs and
per-attribute rates, the balancer's demand, the tenant tally, and the ``Dir_rep`` state of
every replica (origin, index, displacement flag, size, index usage) with the eviction
tombstones; the journaled control state closes scenario (a).  The digest of all rows is
pinned, so a refactor of the lifecycle pass that changes *what* it decides, *in which order*,
or *what it writes back* fails here, even when every answer still matches.  The scenarios
are also checked to be non-vacuous: every lifecycle counter and both eviction modes fire.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.api import Session, col, run_multi_tenant_batch
from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.lifecycle import evict_under_pressure
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.mapreduce.counters import Counters
from repro.workloads.query import Query

#: Digest of every row below, captured before the lifecycle pass was restructured.
EXPECTED_DIGEST = "04b2e1f9f14af090"
EXPECTED_ROWS = 35

_PATH = "/fingerprint/synthetic"


def _system(records: int = 800, **overrides) -> HailSystem:
    config = HailConfig(
        index_attributes=(),
        replication=3,
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        **overrides,
    )
    cost = CostModel(CostParameters(enable_variance=False, data_scale=5000.0))
    system = HailSystem(Cluster.homogeneous(4, seed=7), config=config, cost=cost)
    system.upload(
        _PATH, SyntheticGenerator(seed=3).generate(records), SYNTHETIC_SCHEMA, rows_per_block=100
    )
    return system


def _query(attribute: str, name: str) -> Query:
    return Query(
        name=name,
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=tuple(SYNTHETIC_SCHEMA.field_names[:9]),
        description="",
    )


def _counters(counters: Counters) -> tuple:
    values = counters.as_dict().items()
    return tuple(sorted((name, repr(value)) for name, value in values if value))


def _directory(system: HailSystem) -> tuple:
    """Every replica's ``Dir_rep`` entry and index usage, plus each block's tombstones."""
    namenode = system.hdfs.namenode
    rows = []
    for block_id in namenode.file_blocks(_PATH):
        replicas = []
        for node_id in namenode.block_datanodes(block_id, alive_only=False):
            info = namenode.replica_info(block_id, node_id)
            replicas.append((
                node_id, info.origin, info.indexed_attribute, info.displaced_plain_replica,
                info.size_on_disk_bytes, namenode.index_usage(block_id, node_id),
            ))
        tombstones = tuple(sorted(namenode.block_eviction_tombstones(block_id).items()))
        rows.append((block_id, tuple(replicas), tombstones))
    return tuple(rows)


def _lifecycle(system: HailSystem) -> tuple:
    """The learned control state: tuner knobs and rates, balancer demand, tenant tally."""
    lifecycle = system.lifecycle
    tuner, balancer = lifecycle.tuner, lifecycle.balancer
    knobs = None
    if tuner is not None:
        rates = tuple((name, repr(rate)) for name, rate in tuner.attribute_rates().items())
        knobs = (repr(tuner.offer_rate), tuner.budget, rates)
    demand = None if balancer is None else tuple(sorted(balancer.demand.items()))
    return knobs, demand, tuple(sorted(lifecycle.tenant_jobs.items()))


class _Recorder:
    """Collects the fingerprint rows and every job's counter bag."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.bags: list[Counters] = []

    def job(self, label: str, system: HailSystem, result) -> None:
        counters = result.job.counters
        self.bags.append(counters)
        self.rows.append((
            label, repr(result.runtime_s), _counters(counters), _lifecycle(system),
            _directory(system),
        ))

    def storm(self, label: str, system: HailSystem, policy: DiskPressurePolicy) -> None:
        evicted = evict_under_pressure(system.hdfs, policy)
        self.rows.append((label, len(evicted), _directory(system)))


def _replica_count(directory: tuple) -> int:
    return sum(len(replicas) for _, replicas, _ in directory)


def _plain(value):
    """A journaled value as nested sorted tuples of reprs: key order and types made stable."""
    if isinstance(value, dict):
        return tuple(sorted((str(key), _plain(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_plain(item) for item in value)
    return repr(value)


def _eviction_tuning(record: _Recorder, directory: str) -> None:
    """(a) Eviction + per-attribute auto-tune + memory journal, three attributes cycling."""
    system = _system(
        adaptive_offer_rate=1.0,
        adaptive_eviction=True,
        disk_pressure=DiskPressurePolicy(
            capacity_bytes=15_000.0, high_watermark=0.9, low_watermark=0.6
        ),
        adaptive_auto_tune=True,
        adaptive_per_attribute_tune=True,
        persistence="memory",
        persistence_dir=directory,
    )
    for number, attribute in enumerate(("f1", "f2", "f3") * 4):
        label = f"a-{number}"
        record.job(label, system, system.run_query(_query(attribute, label), _PATH))
    record.rows.append(("a-journal", _plain(system.hdfs.persist.load_state()["control"])))
    system.hdfs.persist.close()


def _storm_recovery(record: _Recorder) -> None:
    """(b) Converge, kill the heaviest node, storm-evict, recover through the balancer."""
    system = _system(
        index_aware_scheduling=True, placement_balancer=True, placement_rebuilds_per_job=4
    )
    for number in range(3):
        label = f"b-converge-{number}"
        record.job(label, system, system.run_query(_query("f1", label), _PATH))
    footprints = system.hdfs.namenode.adaptive_bytes_by_node()
    victim = max(sorted(footprints), key=lambda node_id: footprints[node_id])
    system.cluster.kill_node(victim)
    storm = DiskPressurePolicy(
        capacity_bytes=max(footprints.values()) * 0.4, high_watermark=0.5, low_watermark=0.4
    )
    record.storm(f"b-storm-dn{victim}", system, storm)
    system.config = dataclasses.replace(system.config, adaptive_offer_rate=0.0)
    for number in range(5):
        label = f"b-recover-{number}"
        record.job(label, system, system.run_query(_query("f1", label), _PATH))
    record.storm("b-storm-again", system, storm)


def _skew_migration(record: _Recorder) -> None:
    """(c) Converge with node 0 dead, revive it, let the balancer's skew repair migrate."""
    system = _system(records=1600, placement_balancer=True)
    balancer = system.lifecycle.balancer
    balancer.skew_high, balancer.skew_low = 1.2, 1.05
    system.cluster.kill_node(0)
    for number in range(3):
        label = f"c-converge-{number}"
        record.job(label, system, system.run_query(_query("f1", label), _PATH))
    system.cluster.node(0).revive()
    for number in range(3):
        label = f"c-repair-{number}"
        record.job(label, system, system.run_query(_query("f1", label), _PATH))


def _two_tenants(record: _Recorder) -> None:
    """(d) Two tenants, one deployment, one tuner: a ``max_jobs=2`` interleaved batch."""
    config = HailConfig(
        index_attributes=("f1",),
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        adaptive_auto_tune=True,
        adaptive_per_attribute_tune=True,
    ).with_concurrency(max_jobs=2)
    alice = Session.deploy(nodes=4, hail_config=config, tenant="alice")
    generator = SyntheticGenerator(seed=7)
    alice.upload(_PATH, generator.generate(400), generator.schema, rows_per_block=100)
    bob = alice.attach("bob")
    for i in range(6):
        attribute = ("f2", "f3")[i // 2 % 2]
        lo = (i * 1231) % (VALUE_RANGE // 2)
        (alice, bob)[i % 2].dataset(_PATH).where(
            col(attribute).between(lo, lo + VALUE_RANGE // 10)
        ).named(f"d-{i}").submit()
    batches = run_multi_tenant_batch([alice, bob])
    system = alice.system("HAIL")
    for tenant in ("alice", "bob"):
        for number, result in enumerate(batches[tenant]):
            record.job(f"d-{tenant}-{number}", system, result)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> _Recorder:
    """Every row of the fingerprint, scenario by scenario, and the jobs' counter bags."""
    record = _Recorder()
    _eviction_tuning(record, str(tmp_path_factory.mktemp("lifecycle-fingerprint")))
    _storm_recovery(record)
    _skew_migration(record)
    _two_tenants(record)
    return record


def test_lifecycle_fingerprint_is_unchanged(recorded):
    assert len(recorded.rows) == EXPECTED_ROWS
    digest = hashlib.sha256(repr(recorded.rows).encode()).hexdigest()[:16]
    assert digest == EXPECTED_DIGEST


@pytest.mark.parametrize(
    "counter",
    [
        Counters.ADAPTIVE_INDEXES_EVICTED,
        Counters.ADAPTIVE_BYTES_EVICTED,
        Counters.PLACEMENT_REREPLICATED,
        Counters.PLACEMENT_MIGRATED,
        Counters.PLACEMENT_BYTES_MOVED,
        Counters.ADAPTIVE_SAVED_SECONDS,
    ],
)
def test_scenarios_exercise_every_lifecycle_counter(recorded, counter):
    assert sum(bag.value(counter) for bag in recorded.bags) > 0


def test_storms_downgrade_and_delete(recorded):
    first, second = [row for row in recorded.rows if row[0].startswith("b-storm")]
    assert first[1] > 0 and second[1] > 0
    # A downgrade keeps the replica as a plain copy; a deletion drops it from Dir_block.
    assert any(rep[1] == "evicted" for _, replicas, _ in first[2] for rep in replicas)
    recovered = next(row for row in recorded.rows if row[0] == "b-recover-4")[4]
    assert _replica_count(second[2]) < _replica_count(recovered)
