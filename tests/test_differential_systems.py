"""Differential conformance suite: HAIL, Hadoop++ and stock Hadoop must agree.

Randomized selection/projection workloads run through all three systems (plus HAIL with
adaptive indexing enabled) over the same dataset; every query must produce the identical result
set and the counters that are defined system-independently (map output records = qualifying
tuples) must match.  This is the safety net under the adaptive-indexing feedback loop: however
many indexes the adaptive deployment has accumulated mid-workload, its answers must stay
bit-identical to a stock Hadoop full scan.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.mapreduce.counters import Counters
from repro.workloads.query import Query

_PATH = "/diff/synthetic"
_NUM_RECORDS = 240
_ROWS_PER_BLOCK = 40
_FILTERABLE = ("f1", "f2", "f3", "f4", "f5")


def _cost():
    return CostModel(CostParameters(enable_variance=False, data_scale=50.0))


def _random_query(rng: random.Random, index: int) -> Query:
    """One random selection/projection query over the Synthetic schema."""
    attribute = rng.choice(_FILTERABLE)
    kind = rng.randrange(4)
    if kind == 0:
        predicate = Predicate.comparison(attribute, Operator.LT, rng.randrange(VALUE_RANGE))
    elif kind == 1:
        predicate = Predicate.comparison(attribute, Operator.GE, rng.randrange(VALUE_RANGE))
    elif kind == 2:
        low = rng.randrange(VALUE_RANGE)
        predicate = Predicate.between(attribute, low, low + rng.randrange(VALUE_RANGE // 4))
    else:
        # A conjunction: range on the primary attribute AND-ed with a second clause.
        other = rng.choice([name for name in _FILTERABLE if name != attribute])
        predicate = Predicate(
            Predicate.comparison(attribute, Operator.LT, rng.randrange(VALUE_RANGE)).clauses
            + Predicate.comparison(other, Operator.GE, rng.randrange(VALUE_RANGE // 2)).clauses
        )
    if rng.random() < 0.3:
        projection = None
    else:
        names = list(SYNTHETIC_SCHEMA.field_names)
        rng.shuffle(names)
        projection = tuple(sorted(names[: rng.randrange(1, 6)]))
    return Query(
        name=f"rand-{index}",
        predicate=predicate,
        projection=projection,
        description=f"random differential query #{index}",
    )


@pytest.fixture(scope="module")
def deployments():
    """The same Synthetic dataset uploaded into all four system variants."""
    records = SyntheticGenerator(seed=11).generate(_NUM_RECORDS)

    hadoop = HadoopSystem(Cluster.homogeneous(3, seed=2), cost=_cost())
    hadoopplusplus = HadoopPlusPlusSystem(
        Cluster.homogeneous(3, seed=2),
        trojan_attribute="f1",
        cost=_cost(),
        functional_partition_size=1,
    )
    hail = HailSystem(
        Cluster.homogeneous(3, seed=2),
        config=HailConfig(index_attributes=("f1",), functional_partition_size=1),
        cost=_cost(),
    )
    hail_adaptive = HailSystem(
        Cluster.homogeneous(3, seed=2),
        config=HailConfig(
            index_attributes=(),
            functional_partition_size=1,
            adaptive_indexing=True,
            adaptive_offer_rate=0.7,
        ),
        cost=_cost(),
    )
    systems = {
        "Hadoop": hadoop,
        "Hadoop++": hadoopplusplus,
        "HAIL": hail,
        "HAIL-adaptive": hail_adaptive,
    }
    for system in systems.values():
        system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=_ROWS_PER_BLOCK)
    return systems, records


def test_randomized_workload_agrees_across_all_systems(deployments):
    """20 random queries: identical result sets and qualifying-tuple counters everywhere.

    The adaptive deployment accumulates indexes *while* the workload runs, so later queries
    exercise mixtures of index scans, plain scans and scans-with-builds — all of which must
    stay result-identical to stock Hadoop.
    """
    systems, records = deployments
    rng = random.Random(4242)
    for index in range(20):
        query = _random_query(rng, index)
        results = {name: system.run_query(query, _PATH) for name, system in systems.items()}
        reference = results["Hadoop"].sorted_records()

        # Cross-check against an independent brute-force evaluation of the predicate.
        projection = query.projection or SYNTHETIC_SCHEMA.field_names
        positions = [SYNTHETIC_SCHEMA.index_of(name) for name in projection]
        brute = sorted(
            (
                tuple(record[i] for i in positions)
                for record in records
                if query.predicate.matches(record, SYNTHETIC_SCHEMA)
            ),
            key=repr,
        )
        assert reference == brute, f"{query.name}: Hadoop disagrees with brute force"

        for name, result in results.items():
            assert result.sorted_records() == reference, f"{query.name}: {name} diverges"
            assert result.job.counters.value(Counters.MAP_OUTPUT_RECORDS) == len(
                reference
            ), f"{query.name}: {name} counter mismatch"


def test_adaptive_indexing_changes_plans_not_results(deployments):
    """The adaptive deployment ends the workload with indexes; results stay identical."""
    systems, _ = deployments
    adaptive = systems["HAIL-adaptive"]
    # The randomized workload above ran first (module-scoped fixture, test order), but this
    # test must hold regardless: drive one attribute to full coverage explicitly.
    query = Query(
        name="drive-f2",
        predicate=Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 2),
        projection=("f2", "f3"),
        description="",
    )
    for _ in range(8):
        adaptive_result = adaptive.run_query(query, _PATH)
    hadoop_result = systems["Hadoop"].run_query(query, _PATH)
    assert adaptive_result.sorted_records() == hadoop_result.sorted_records()
    assert adaptive_result.plan.num_index_scans > 0
    assert adaptive.adaptive_replica_count(_PATH) > 0


def test_disabled_adaptivity_never_touches_dir_rep(deployments):
    """With adaptivity off, queries leave the namenode's replica directory untouched."""
    systems, _ = deployments
    hail = systems["HAIL"]
    before = hail.hdfs.namenode.describe()["dir_rep_entries"]
    query = Query(
        name="ro",
        predicate=Predicate.comparison("f4", Operator.LT, VALUE_RANGE // 3),
        projection=("f4",),
        description="",
    )
    hail.run_query(query, _PATH)
    assert hail.hdfs.namenode.describe()["dir_rep_entries"] == before
    assert hail.adaptive_replica_count(_PATH) == 0
