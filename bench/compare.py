"""Compare two suite results: ``python3 bench/compare.py PARENT.json CHANGE.json``.

Per workload and end-to-end metric it prints both medians, how much worse the change's is as
a share of the parent's, and a verdict against the metric's bound from ``BENCHMARK.json``:

- ``regression``: the change's median is worse than the parent's by more than the bound;
- ``unresolved``: the repeats' min-max spread exceeds the bound and the two ranges overlap,
  so the runs cannot tell (neither "unchanged" nor "regressed" is shown);
- ``ok``: anything else.

Exits non-zero on a regression, on a higher failed share, or when the two environment blocks
differ in what makes numbers comparable (python version, kernel backend, nproc, seed, run
length, workload sizes).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment keys two results must share to be compared at all.
COMPARABLE = ("python", "kernel_backend", "numpy", "nproc", "seed", "seconds", "quick")


def worsening(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent`` (< 0: better)."""
    delta = change - parent if metric["better"] == "lower" else parent - change
    return delta / abs(parent)


def verdict(metric: dict, parent: dict, change: dict) -> str:
    """``ok``, ``regression`` or ``unresolved`` for one metric's two cells."""
    bound = metric["bound"]
    spread = max(
        (cell["max"] - cell["min"]) / abs(cell["median"]) for cell in (parent, change)
    )
    overlap = parent["min"] <= change["max"] and change["min"] <= parent["max"]
    if spread > bound and overlap:
        return "unresolved"
    if worsening(metric, parent["median"], change["median"]) > bound:
        return "regression"
    return "ok"


def environment_differences(parent: dict, change: dict) -> list[str]:
    """Human-readable lines for every difference that makes the two results incomparable."""
    lines = []
    for key in COMPARABLE:
        if parent["environment"].get(key) != change["environment"].get(key):
            lines.append(
                f"environment.{key}: {parent['environment'].get(key)!r} vs "
                f"{change['environment'].get(key)!r}"
            )
    if set(parent["workloads"]) != set(change["workloads"]):
        lines.append(
            f"workloads: {sorted(parent['workloads'])} vs {sorted(change['workloads'])}"
        )
    for name in sorted(set(parent["workloads"]) & set(change["workloads"])):
        sizes = (parent["workloads"][name]["sizes"], change["workloads"][name]["sizes"])
        if sizes[0] != sizes[1]:
            lines.append(f"{name} sizes: {sizes[0]} vs {sizes[1]}")
    return lines


def compare(parent: dict, change: dict, spec: dict) -> tuple[list[tuple], list[str]]:
    """All rows ``(workload, metric, parent median, change median, worsening, verdict)`` and
    the reasons (if any) the comparison fails."""
    problems = environment_differences(parent, change)
    rows = []
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            continue
        before, after = parent["workloads"][name], change["workloads"][name]
        share_before = before["failed"] / before["attempted"]
        share_after = after["failed"] / after["attempted"]
        if share_after > share_before:
            problems.append(f"{name}: failed share rose from {share_before} to {share_after}")
        for metric in spec["end_to_end"]:
            a = before["end_to_end"][metric["name"]]
            b = after["end_to_end"][metric["name"]]
            outcome = verdict(metric, a, b)
            rows.append(
                (
                    name,
                    metric["name"],
                    a["median"],
                    b["median"],
                    worsening(metric, a["median"], b["median"]),
                    outcome,
                )
            )
            if outcome == "regression":
                problems.append(f"{name} {metric['name']}: regression beyond {metric['bound']}")
    return rows, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, problems = compare(parent, change, spec)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    print(f"{'workload':<16} {'metric':<28} {'parent':>14} {'change':>14} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    for name, metric, a, b, worse, outcome in rows:
        print(f"{name:<16} {metric:<28} {a:>14.4f} {b:>14.4f} {worse:>+9.2%} "
              f"{bounds[metric]:>6.2f}  {outcome}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
