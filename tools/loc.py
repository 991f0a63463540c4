#!/usr/bin/env python3
"""Line counts that deleting prose cannot move: physical lines and *code* lines per file.

A code line is a physical line holding at least one token that is not a comment and not part
of a docstring (the leading string literal of a module, class or function, found with
``ast``).  Blank lines, comment-only lines and docstring lines are excluded; a line that
carries code and a trailing comment counts.  Tokens come from ``tokenize``, so a ``#`` inside
a string literal is not mistaken for a comment.

The report covers the consolidation area ROADMAP item 4 sizes (``api/session.py``,
``engine/lifecycle.py``, ``mapreduce/`` and ``hail/config.py``) file by file, then its total.
It is informational: nothing here fails a build.

Usage::

    python tools/loc.py                  # the consolidation area, per file and in total
    python tools/loc.py path/to/file.py  # any files or directories instead
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The files and packages ROADMAP item 4's line target is measured over.
CONSOLIDATION_AREA = (
    "src/repro/api/session.py",
    "src/repro/engine/lifecycle.py",
    "src/repro/mapreduce",
    "src/repro/hail/config.py",
)

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Physical line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(physical lines, code lines)`` of one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NON_CODE:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                code.add(line)
    return len(source.splitlines()), len(code)


def _files(targets: list[str]) -> list[Path]:
    files: list[Path] = []
    for target in targets:
        path = Path(target) if Path(target).is_absolute() else ROOT / target
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    files = _files(argv or list(CONSOLIDATION_AREA))
    total_physical = total_code = 0
    print(f"{'physical':>9} {'code':>6}  file")
    for path in files:
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{physical:>9} {code:>6}  {shown}")
    print(f"{total_physical:>9} {total_code:>6}  total ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
