"""Synthetic dataset generator: 19 integer attributes (Section 6.2).

The paper uses this dataset to isolate selectivity and projectivity effects: every query filters
on the same attribute (so HAIL cannot benefit from having several different indexes) and the
queries vary selectivity (0.10 vs 0.01) and the number of projected attributes (19 / 9 / 1).
Attribute values are uniform in ``[0, value_range)``, so a range predicate ``f1 < s *
value_range`` has selectivity ``s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.query.schema import Field, FieldType, Schema

#: Number of integer attributes in the Synthetic dataset.
NUM_ATTRIBUTES = 19
#: Exclusive upper bound of the uniform attribute values.
VALUE_RANGE = 1_000_000

SYNTHETIC_SCHEMA = Schema(
    [Field(f"f{i}", FieldType.INT) for i in range(1, NUM_ATTRIBUTES + 1)],
    name="Synthetic",
    delimiter="|",
)


@dataclass
class SyntheticGenerator:
    """Deterministic pseudo-random generator of Synthetic records."""

    seed: int = 7
    value_range: int = VALUE_RANGE

    @property
    def schema(self) -> Schema:
        """The Synthetic schema (f1..f19, all integers)."""
        return SYNTHETIC_SCHEMA

    def generate(self, num_records: int) -> list[tuple]:
        """Generate ``num_records`` records of 19 uniform integers each."""
        rng = random.Random(self.seed)
        bound = self.value_range
        return [
            tuple(rng.randrange(bound) for _ in range(NUM_ATTRIBUTES))
            for _ in range(num_records)
        ]
