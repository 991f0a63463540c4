"""Regenerate the golden Figure 6/7/8 values after a *deliberate* baseline change.

Usage::

    PYTHONPATH=src python tests/golden/regenerate.py

Only run this when a PR intentionally changes the simulated cost model or planner behaviour;
the diff of ``fig6_fig7_small.json`` / ``fig8_small.json`` then documents exactly which cells
moved and must be justified in the PR description.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import ExperimentConfig, failover, queries

GOLDEN_DIR = Path(__file__).parent
GOLDEN_CONFIG = ExperimentConfig(nodes=4, blocks_per_node=8, rows_per_block=100, seed=7)


#: Golden file -> the figure producers pinned in it.
GOLDEN_FILES = {
    "fig6_fig7_small.json": {"fig6": queries.fig6, "fig7": queries.fig7},
    "fig8_small.json": {"fig8": failover.fig8},
}


def main() -> None:
    for filename, producers in GOLDEN_FILES.items():
        golden = {}
        for name, producer in producers.items():
            result = producer(GOLDEN_CONFIG)
            golden[name] = {"figure": result.figure, "rows": result.rows}
        path = GOLDEN_DIR / filename
        with path.open("w") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
