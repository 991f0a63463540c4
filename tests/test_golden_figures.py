"""Golden-value regression: Figure 6/7/8 simulated runtimes are pinned bit-for-bit.

The adaptive-indexing subsystem must be a strict no-op when disabled (its knobs default to
off), and future refactors must not silently shift the paper baselines either.  This test
compares every cell of the Figure 6 and Figure 7 result tables — end-to-end runtimes,
RecordReader times, framework overheads, result agreement — against golden values captured at
the default benchmark scale.  Exact float equality is intentional: the simulation is
deterministic, so any drift is a behaviour change that needs a deliberate golden refresh
(regenerate with ``tests/golden/regenerate.py`` and justify the diff in the PR).

Figure 8 (``fig8_small.json``) pins the node-kill path the same way: the failure run goes
through the one map-phase scheduling loop every other job uses, so its runtimes, slowdowns
and rescheduled-task counts are held to exact equality too.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, failover, queries

GOLDEN_PATH = Path(__file__).parent / "golden" / "fig6_fig7_small.json"
FIG8_GOLDEN_PATH = Path(__file__).parent / "golden" / "fig8_small.json"

#: Must match the configuration the golden file was captured with (the benchmark default).
GOLDEN_CONFIG = ExperimentConfig(nodes=4, blocks_per_node=8, rows_per_block=100, seed=7)


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _assert_rows_identical(figure_name: str, actual_rows: list[dict], golden_rows: list[dict]):
    assert len(actual_rows) == len(golden_rows), f"{figure_name}: row count changed"
    for actual, expected in zip(actual_rows, golden_rows):
        assert set(actual) == set(expected), f"{figure_name}: columns changed"
        for column, expected_value in expected.items():
            actual_value = actual[column]
            assert actual_value == expected_value, (
                f"{figure_name} row {expected.get('query', expected.get('system'))!r}, "
                f"column {column!r}: "
                f"{actual_value!r} != golden {expected_value!r}"
            )


def test_fig6_runtimes_match_golden_bit_for_bit(golden):
    result = queries.fig6(GOLDEN_CONFIG)
    _assert_rows_identical("Figure 6", result.rows, golden["fig6"]["rows"])


def test_fig7_runtimes_match_golden_bit_for_bit(golden):
    result = queries.fig7(GOLDEN_CONFIG)
    _assert_rows_identical("Figure 7", result.rows, golden["fig7"]["rows"])


def test_fig8_failover_matches_golden_bit_for_bit():
    with FIG8_GOLDEN_PATH.open() as handle:
        golden = json.load(handle)
    result = failover.fig8(GOLDEN_CONFIG)
    _assert_rows_identical("Figure 8", result.rows, golden["fig8"]["rows"])
