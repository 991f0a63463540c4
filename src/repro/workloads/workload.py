"""Workloads: named groups of queries plus the dataset they run on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.datagen.synthetic import SyntheticGenerator
from repro.datagen.uservisits import UserVisitsGenerator
from repro.query.predicate import Query
from repro.query.schema import Schema
from repro.workloads.bob import BOB_INDEX_ATTRIBUTES, BOB_TROJAN_ATTRIBUTE, bob_queries
from repro.workloads.synthetic_queries import SYNTHETIC_FILTER_ATTRIBUTE, synthetic_queries


@dataclass(frozen=True)
class Workload:
    """A named set of queries over one dataset, with the index configurations the paper uses."""

    name: str
    path: str
    schema: Schema
    queries: tuple[Query, ...]
    #: HAIL's per-replica index attributes for this workload.
    hail_index_attributes: tuple[str, ...]
    #: Hadoop++'s single trojan index attribute for this workload.
    trojan_attribute: str
    #: Factory producing the dataset's records: ``generate(num_records, seed)``.
    generator: Callable[[int, int], list[tuple]]

    def generate(self, num_records: int, seed: int = 0) -> list[tuple]:
        """Generate ``num_records`` records of this workload's dataset."""
        return self.generator(num_records, seed)


def bob_workload() -> Workload:
    """Bob's UserVisits workload with the paper's index configuration."""
    return Workload(
        name="Bob",
        path="/data/uservisits",
        schema=UserVisitsGenerator().schema,
        queries=tuple(bob_queries()),
        hail_index_attributes=BOB_INDEX_ATTRIBUTES,
        trojan_attribute=BOB_TROJAN_ATTRIBUTE,
        generator=lambda n, seed=0: UserVisitsGenerator(seed=seed or 42).generate(n),
    )


def synthetic_workload() -> Workload:
    """The Synthetic workload (all queries filter on the same attribute)."""
    return Workload(
        name="Synthetic",
        path="/data/synthetic",
        schema=SyntheticGenerator().schema,
        queries=tuple(synthetic_queries()),
        hail_index_attributes=(SYNTHETIC_FILTER_ATTRIBUTE, "f2", "f3"),
        trojan_attribute=SYNTHETIC_FILTER_ATTRIBUTE,
        generator=lambda n, seed=0: SyntheticGenerator(seed=seed or 7).generate(n),
    )
