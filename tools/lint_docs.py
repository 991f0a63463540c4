#!/usr/bin/env python3
"""Documentation lint: a docstring-coverage floor plus a markdown link checker.

Runs in CI (and as ``tests/test_docs_lint.py``) with no third-party dependencies, so the
operator documentation cannot rot silently:

- **docstring floor** — every module, class and public function under the checked source
  trees must carry a docstring; the floor is a ratchet (interrogate-style) so incidental
  regressions fail fast while generated/private helpers stay exempt;
- **link check** — every relative markdown link in the checked documents must point at an
  existing file or directory (external ``http(s)``/``mailto`` targets and pure in-page
  anchors are skipped — CI must not depend on network access);
- **required guides** — the operator guides the documentation map (``docs/index.md``) names
  must exist, so a renamed or deleted guide fails loudly;
- **counter reference** — the table between the ``counters:begin`` / ``counters:end`` markers
  of ``docs/api.md`` must equal the rendering of the counter declaration table
  (``repro.mapreduce.counters.DECLARED``), so a declared counter cannot go undocumented.

Usage::

    python tools/lint_docs.py                   # lint the repository with the default settings
    python tools/lint_docs.py --write-counters  # rewrite the counter reference in place
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: Source trees whose docstring coverage is enforced, with their floors (documented/total).
DOCSTRING_FLOORS: dict[str, float] = {
    "src/repro/engine": 0.95,
    # The declarative client layer is the user-facing surface: hold it to the same bar.
    "src/repro/api": 0.95,
    # The placement layer (scheduler/runner and the cluster models it budgets against) is
    # operator-facing through docs/scheduling.md: its modules must stay documented too.
    "src/repro/cluster": 0.95,
    "src/repro/mapreduce": 0.95,
    # The storage layouts carry the zone-map synopses and typed-column views the performance
    # guide (docs/performance.md) documents: same bar as the engine they feed.
    "src/repro/layouts": 0.95,
    # The persistence layer is operator-facing through docs/persistence.md and defines the
    # crash-safety contract the recovery tests rely on: it must stay documented.
    "src/repro/persist": 0.95,
    # The query IR and the schema are the bottom layer every other package reads.
    "src/repro/query": 0.95,
}

#: Markdown documents whose relative links are checked.
LINKED_DOCUMENTS: tuple[str, ...] = ("README.md", "docs")

#: Operator guides that must exist (the docs/index.md map and CI both rely on them); a
#: deleted or renamed guide fails the lint instead of silently 404-ing from the map.
REQUIRED_DOCUMENTS: tuple[str, ...] = (
    "docs/index.md",
    "docs/api.md",
    "docs/adaptive-indexing.md",
    "docs/scheduling.md",
    "docs/performance.md",
    "docs/persistence.md",
    "docs/queries.md",
)

#: The document holding the generated counter reference, and the markers around it.
COUNTER_REFERENCE_DOCUMENT = "docs/api.md"
COUNTERS_BEGIN = "<!-- counters:begin -->"
COUNTERS_END = "<!-- counters:end -->"

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


# --------------------------------------------------------------------------- docstring floor
def docstring_coverage(root: Path) -> tuple[int, int, list[str]]:
    """``(documented, total, missing)`` over all modules/classes/public functions under ``root``.

    A definition counts as public when its name does not start with ``_``; nested private
    helpers and dunder methods are exempt, mirroring how interrogate's default config counts.
    """
    documented = 0
    total = 0
    missing: list[str] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, label in _documentable_nodes(tree, path):
            total += 1
            if ast.get_docstring(node) is not None:
                documented += 1
            else:
                missing.append(label)
    return documented, total, missing


def _documentable_nodes(tree: ast.Module, path: Path):
    yield tree, f"{path}:module"
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node, f"{path}:{node.lineno}:{node.name}"


def check_docstrings(repo_root: Path, floors: dict[str, float]) -> list[str]:
    """Problems (empty when every checked tree meets its floor)."""
    problems: list[str] = []
    for relative, floor in floors.items():
        root = repo_root / relative
        if not root.exists():
            problems.append(f"{relative}: checked tree does not exist")
            continue
        documented, total, missing = docstring_coverage(root)
        coverage = documented / total if total else 1.0
        if coverage < floor:
            preview = ", ".join(missing[:5])
            problems.append(
                f"{relative}: docstring coverage {coverage:.1%} is below the {floor:.0%} "
                f"floor ({documented}/{total} documented; missing e.g. {preview})"
            )
    return problems


# --------------------------------------------------------------------------- link check
def markdown_files(repo_root: Path, documents: tuple[str, ...] = LINKED_DOCUMENTS) -> list[Path]:
    """The markdown files the link checker covers."""
    files: list[Path] = []
    for relative in documents:
        target = repo_root / relative
        if target.is_dir():
            files.extend(sorted(target.rglob("*.md")))
        elif target.exists():
            files.append(target)
    return files


def broken_links(markdown_file: Path) -> list[str]:
    """Relative links in ``markdown_file`` whose targets do not exist."""
    problems: list[str] = []
    text = markdown_file.read_text(encoding="utf-8")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL_SCHEMES):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:  # pure in-page anchor
            continue
        resolved = (markdown_file.parent / path_part).resolve()
        if not resolved.exists():
            problems.append(f"{markdown_file}: broken link -> {target}")
    return problems


def check_links(repo_root: Path, documents: tuple[str, ...] = LINKED_DOCUMENTS) -> list[str]:
    """Broken relative links across all checked documents (empty when clean)."""
    problems: list[str] = []
    for markdown_file in markdown_files(repo_root, documents):
        problems.extend(broken_links(markdown_file))
    return problems


def check_required_documents(
    repo_root: Path, documents: tuple[str, ...] = REQUIRED_DOCUMENTS
) -> list[str]:
    """Operator guides that are missing from the repository (empty when all exist)."""
    return [
        f"{relative}: required operator guide does not exist"
        for relative in documents
        if not (repo_root / relative).is_file()
    ]


# --------------------------------------------------------------------------- counter reference
def render_counter_reference() -> str:
    """The counter reference table: one row per declared counter, in declaration order."""
    from repro.api.session import STATS_ALIASES
    from repro.mapreduce.counters import DECLARED

    aliases = {counter: alias for alias, counter in STATS_ALIASES.items()}
    rows = ["| counter | `stats()` accessor | unit | meaning |", "| --- | --- | --- | --- |"]
    for spec in DECLARED.values():
        accessor = f"`{spec.name.lower()}`"
        if spec.name in aliases:
            accessor += f" (alias `{aliases[spec.name]}`)"
        rows.append(f"| `{spec.name}` | {accessor} | {spec.unit} | {spec.doc} |")
    return "\n".join(rows)


def _split_at_counter_markers(document: str, text: str) -> tuple[str, str, str]:
    """``(head, body, tail)`` of ``text`` around the two markers, which stay in head and tail."""
    head, begin, rest = text.partition(COUNTERS_BEGIN)
    body, end, tail = rest.partition(COUNTERS_END)
    if not (begin and end):
        raise ValueError(f"{document}: missing the {COUNTERS_BEGIN} ... {COUNTERS_END} markers")
    return head + begin, body, end + tail


def check_counter_reference(
    repo_root: Path, document: str = COUNTER_REFERENCE_DOCUMENT
) -> list[str]:
    """Problems with the generated counter reference (empty when it matches the table)."""
    try:
        _, body, _ = _split_at_counter_markers(
            document, (repo_root / document).read_text(encoding="utf-8")
        )
    except ValueError as missing:
        return [str(missing)]
    expected = render_counter_reference()
    if body.strip() == expected:
        return []
    return [
        f"{document}: the counter reference is not the rendering of "
        "repro.mapreduce.counters.DECLARED; run 'python tools/lint_docs.py --write-counters' "
        f"or paste the expected block:\n{expected}"
    ]


def write_counter_reference(repo_root: Path, document: str = COUNTER_REFERENCE_DOCUMENT) -> None:
    """Rewrite the text between the markers from the declaration table."""
    path = repo_root / document
    head, _, tail = _split_at_counter_markers(document, path.read_text(encoding="utf-8"))
    path.write_text(f"{head}\n{render_counter_reference()}\n{tail}", encoding="utf-8")


# --------------------------------------------------------------------------- entry point
def run(repo_root: Path) -> list[str]:
    """All lint problems for the repository (empty when clean)."""
    return (
        check_docstrings(repo_root, DOCSTRING_FLOORS)
        + check_links(repo_root)
        + check_required_documents(repo_root)
        + check_counter_reference(repo_root)
    )


def main(argv: list[str]) -> int:
    """Lint the repository this file lives in; 0 on success, 1 with a report otherwise.

    ``--write-counters`` rewrites the counter reference instead (the deliberate-change path,
    like ``tools/lint_api.py --update``).
    """
    repo_root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo_root / "src"))
    if "--write-counters" in argv:
        write_counter_reference(repo_root)
        print(f"lint_docs: wrote the counter reference in {COUNTER_REFERENCE_DOCUMENT}")
        return 0
    problems = run(repo_root)
    if problems:
        for problem in problems:
            print(f"lint_docs: {problem}", file=sys.stderr)
        return 1
    floors = ", ".join(f"{tree} >= {floor:.0%}" for tree, floor in DOCSTRING_FLOORS.items())
    print(f"lint_docs: ok (docstring floors: {floors}; links checked in "
          f"{len(markdown_files(repo_root))} markdown files; counter reference current)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
