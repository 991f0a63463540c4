"""The API-surface lint gate: public exports of ``repro``/``repro.api`` pinned in CI.

Accidentally dropping, renaming, or silently adding a public export must fail this suite (and
the identical CI step) until ``tools/public_api.json`` is updated deliberately.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import repro
import repro.api

REPO_ROOT = Path(__file__).resolve().parent.parent


def _lint_api():
    spec = importlib.util.spec_from_file_location(
        "lint_api", REPO_ROOT / "tools" / "lint_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("lint_api", module)
    spec.loader.exec_module(module)
    return module


lint_api = _lint_api()


def test_repository_passes_the_api_surface_lint():
    assert lint_api.run(REPO_ROOT) == []


def test_manifest_matches_current_exports_exactly():
    manifest = json.loads((REPO_ROOT / "tools" / "public_api.json").read_text())
    assert manifest["repro"] == sorted(repro.__all__)
    assert manifest["repro.api"] == sorted(repro.api.__all__)


def test_every_pinned_export_is_importable():
    for module_name in lint_api.PINNED_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} is exported but missing"


def test_removed_export_is_reported_as_breaking():
    manifest = json.loads((REPO_ROOT / "tools" / "public_api.json").read_text())
    manifest["repro"] = sorted(manifest["repro"] + ["run_cluster_wide_magic"])
    problems = lint_api.run(REPO_ROOT, manifest=manifest)
    assert any("removed" in problem and "run_cluster_wide_magic" in problem for problem in problems)


def test_new_export_requires_a_manifest_update():
    manifest = json.loads((REPO_ROOT / "tools" / "public_api.json").read_text())
    manifest["repro.api"] = [name for name in manifest["repro.api"] if name != "col"]
    problems = lint_api.run(REPO_ROOT, manifest=manifest)
    assert any("new exported names" in problem and "col" in problem for problem in problems)


def test_unknown_manifest_entries_are_flagged():
    manifest = json.loads((REPO_ROOT / "tools" / "public_api.json").read_text())
    manifest["repro.secret"] = ["anything"]
    problems = lint_api.run(REPO_ROOT, manifest=manifest)
    assert any("repro.secret" in problem for problem in problems)


def test_dangling_export_is_flagged(monkeypatch):
    monkeypatch.setattr(repro.api, "__all__", list(repro.api.__all__) + ["ghost_name"])
    problems = lint_api.check_module("repro.api", sorted(repro.api.__all__))
    assert any("ghost_name" in problem and "no such attribute" in problem for problem in problems)


def test_missing_manifest_entry_is_flagged():
    problems = lint_api.run(REPO_ROOT, manifest={"repro": sorted(repro.__all__)})
    assert any("no entry for pinned module 'repro.api'" in problem for problem in problems)


def test_update_writes_a_round_trippable_manifest(tmp_path, monkeypatch):
    (tmp_path / "tools").mkdir()
    lint_api.update_manifest(tmp_path)
    written = json.loads((tmp_path / "tools" / "public_api.json").read_text())
    assert set(written) == set(lint_api.PINNED_MODULES)
    assert lint_api.run(tmp_path) == []


def test_missing_manifest_raises_with_guidance(tmp_path):
    with pytest.raises(FileNotFoundError, match="--update"):
        lint_api.load_manifest(tmp_path)


def test_names_the_bench_tracer_rebinds_still_resolve():
    """``bench/`` is frozen between ``benchmark`` PRs; catch a rename here, not in its tests."""
    from repro.engine import operators
    from repro.mapreduce.shuffle import run_reduce_phase

    pinned = "pinned by bench/trace.py SPAN_TARGETS and bench/test_trace.py:84-86"
    assert operators.execute.__name__ == "execute", pinned
    for module_name, alias, target in (
        ("repro.api.session", "execute_operator", operators.execute),
        ("repro.engine.operators.join", "run_reduce_phase", run_reduce_phase),
        ("repro.mapreduce.runner", "run_reduce_phase", run_reduce_phase),
    ):
        module = importlib.import_module(module_name)
        assert getattr(module, alias, None) is target, f"{module_name}.{alias}: {pinned}"
