"""Smoke test of the benchmark: the quick suite runs, is declared as it prints, and checks."""

from __future__ import annotations

import copy
import json
import re

import pytest

from bench import compare, run
from bench.trace import SPAN_NAMES
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_benchmark_json_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_declared_names_are_what_the_suite_prints(spec, quick_suite):
    result, _, _ = quick_suite
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(result["workloads"])
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    declared_spans = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if "_per_op" in m["name"]}
    assert declared_spans == set(SPAN_NAMES)
    for entry in result["workloads"].values():
        assert list(entry["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        assert set(entry["per_layer"]) == {m["name"] for m in spec["per_layer"]}


def test_quick_suite_answers_are_correct_and_metrics_never_zero(quick_suite):
    result, _, _ = quick_suite
    for name, entry in result["workloads"].items():
        assert entry["attempted"] > 0 and entry["failed"] == 0, name
        for metric, cell in entry["end_to_end"].items():
            assert cell["median"] > 0, (name, metric)
        assert entry["per_layer"]["trace.unattributed_share"]["value"] <= 0.10, name
        assert len(entry["top_spans"]) == 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracle_has_teeth(name):
    """One corrupted expected row must turn up as a failed operation."""
    workload = WORKLOADS[name](seed=7, quick=True, scratch=run.SCRATCH)
    run.SCRATCH.mkdir(exist_ok=True)
    try:
        workload.setup()
        key = next(key for key, rows in workload.expected.items() if rows)
        workload.expected[key][0] = workload.expected[key][0][:-1] + ("corrupted",)
        rec = run.Recorder()
        rec.begin_pass()
        workload.run_pass(rec)
        assert rec.end_pass()["outcome"].failed > 0
        assert 0 < rec.failed < rec.attempted
    finally:
        workload.close()


def test_one_workload_run_prints_the_contract_line(spec, capsys):
    assert run.main(["--workload", "operators", "--quick", "--seconds", "0", "--trace", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_compare_accepts_itself_and_rejects_a_regression(spec, quick_suite):
    result, _, _ = quick_suite
    rows, problems = compare.compare(result, result, spec)
    assert not problems and {row[5] for row in rows} == {"ok"}

    slower = copy.deepcopy(result)
    cell = slower["workloads"]["bob_indexed"]["end_to_end"]["ops_per_s"]
    for key in ("median", "min", "max"):
        cell[key] /= 2
    _, problems = compare.compare(result, slower, spec)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ops_per_s")
    assert problems == [f"bob_indexed ops_per_s: regression beyond {bound}"]

    other = copy.deepcopy(result)
    other["environment"]["seed"] += 1
    other["workloads"]["ingest"]["failed"] = 1
    _, problems = compare.compare(result, other, spec)
    assert any("environment.seed" in p for p in problems)
    assert any("failed share rose" in p for p in problems)
