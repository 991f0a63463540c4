"""The documentation lint gate: docstring floor on the engine, link-checked docs/README."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _lint_docs():
    spec = importlib.util.spec_from_file_location(
        "lint_docs", REPO_ROOT / "tools" / "lint_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("lint_docs", module)
    spec.loader.exec_module(module)
    return module


lint_docs = _lint_docs()


def test_repository_passes_the_doc_lint():
    assert lint_docs.run(REPO_ROOT) == []


def test_engine_docstring_coverage_meets_the_floor():
    documented, total, missing = lint_docs.docstring_coverage(
        REPO_ROOT / "src" / "repro" / "engine"
    )
    assert total > 0
    assert documented / total >= lint_docs.DOCSTRING_FLOORS["src/repro/engine"], missing


def test_docstring_checker_flags_undocumented_definitions(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "mod.py").write_text(
        '"""Documented module."""\n\n\ndef documented():\n    """Yes."""\n\n\ndef naked():\n    pass\n'
    )
    documented, total, missing = lint_docs.docstring_coverage(tree)
    assert (documented, total) == (2, 3)
    assert len(missing) == 1 and missing[0].endswith("naked")
    problems = lint_docs.check_docstrings(tmp_path, {"pkg": 1.0})
    assert problems and "below the 100% floor" in problems[0]


def test_docstring_checker_reports_missing_tree(tmp_path):
    assert lint_docs.check_docstrings(tmp_path, {"nope": 0.5}) == [
        "nope: checked tree does not exist"
    ]


def test_link_checker_flags_broken_relative_links(tmp_path):
    good = tmp_path / "target.md"
    good.write_text("# target\n")
    document = tmp_path / "doc.md"
    document.write_text(
        "[ok](target.md) [anchor](#section) [ext](https://example.com/x) [bad](missing.md)\n"
    )
    problems = lint_docs.broken_links(document)
    assert len(problems) == 1 and "missing.md" in problems[0]


def test_required_documents_checker_reports_missing_guides(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "present.md").write_text("# here\n")
    problems = lint_docs.check_required_documents(
        tmp_path, ("docs/present.md", "docs/absent.md")
    )
    assert problems == ["docs/absent.md: required operator guide does not exist"]


def test_every_required_guide_exists_in_this_repository():
    assert lint_docs.check_required_documents(REPO_ROOT) == []


def test_fast_fail_order_names_existing_test_files():
    """A renamed test file must not silently drop out of the ``pytest -x`` fast-fail order."""
    spec = importlib.util.spec_from_file_location("root_conftest", REPO_ROOT / "conftest.py")
    root_conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(root_conftest)
    assert len(set(root_conftest.SMOKE_FIRST)) == len(root_conftest.SMOKE_FIRST)
    assert [p for p in root_conftest.SMOKE_FIRST if not (REPO_ROOT / p).is_file()] == []


def test_link_checker_resolves_links_relative_to_the_document(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("readme\n")
    document = tmp_path / "docs" / "guide.md"
    document.write_text("[up](../README.md#section)\n")
    assert lint_docs.broken_links(document) == []
    assert lint_docs.check_links(tmp_path, ("README.md", "docs")) == []


def test_counter_reference_has_one_row_per_declared_counter():
    from repro.mapreduce.counters import DECLARED

    rendered = lint_docs.render_counter_reference().splitlines()
    assert len(rendered) == 2 + len(DECLARED)
    assert rendered[0].count("|") == rendered[-1].count("|") == 5
    row = next(line for line in rendered if line.startswith("| `PLACEMENT_MIGRATED`"))
    assert "`placement_migrated` (alias `placement_migrations`) | count |" in row
    assert lint_docs.check_counter_reference(REPO_ROOT) == []


def test_counter_reference_checker_flags_a_stale_block_and_rewrites_it(tmp_path):
    document = tmp_path / "api.md"
    document.write_text(
        f"intro\n\n{lint_docs.COUNTERS_BEGIN}\n| stale |\n{lint_docs.COUNTERS_END}\n\noutro\n"
    )
    problems = lint_docs.check_counter_reference(tmp_path, "api.md")
    assert len(problems) == 1 and "--write-counters" in problems[0]
    assert lint_docs.render_counter_reference() in problems[0]  # the expected block is printed
    lint_docs.write_counter_reference(tmp_path, "api.md")
    assert lint_docs.check_counter_reference(tmp_path, "api.md") == []
    rewritten = document.read_text()
    assert rewritten.startswith("intro\n\n") and rewritten.endswith("\n\noutro\n")
    assert "| stale |" not in rewritten


def test_counter_reference_checker_reports_missing_markers(tmp_path):
    (tmp_path / "api.md").write_text("no markers here\n")
    problems = lint_docs.check_counter_reference(tmp_path, "api.md")
    assert problems == [
        "api.md: missing the <!-- counters:begin --> ... <!-- counters:end --> markers"
    ]
