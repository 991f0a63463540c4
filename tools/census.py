#!/usr/bin/env python3
"""The test-only surface: definitions in ``src/repro`` that no program file references.

A definition is a module-level class or function, or a method of a module-level class
(dunder methods excluded: Python calls them).  The program files are every ``.py`` under
``src/``, ``bench/``, ``benchmarks/`` (the paper's figures and the extension curves),
``examples/`` and ``tools/``; ``tests/`` is not one of them.  A definition is *referenced* when
a program file names it in an AST ``Name``, ``Attribute`` or import.  These do not count:

- an import in a package ``__init__.py`` (a re-export is not a use);
- a mention in a string, ``__all__`` and docstrings included;
- a reference made inside an unreferenced definition.  This rule is applied until nothing
  changes, so a class that only a dead function builds is dead too.

Names are matched by their last part only, so a method counts as used when any call site
spells its name.  A method of a dead class is not listed on its own; the class stands for it.

The output should be the keep list ``tests/test_census.py`` pins, each entry saying in its
docstring why it stays.  Anything else it lists is code only tests reach: move its tests onto
the real path and delete it.  The tool only reports; that test is the gate.

Usage::

    python tools/census.py    # one dotted name per line, then the count
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

#: The package whose definitions are counted.
PACKAGE = "src/repro"

#: The directories holding the program files that may reference them.
PROGRAM = ("src", "bench", "benchmarks", "examples", "tools")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(eq=False)
class Definition:
    qualname: str
    name: str
    parent: Optional["Definition"]

    def encloses(self, owner: Optional["Definition"]) -> bool:
        """True when ``owner`` is this definition or nested in it."""
        while owner is not None and owner is not self:
            owner = owner.parent
        return owner is self


def _definitions(tree: ast.Module, module: str) -> dict[ast.AST, Definition]:
    """Module-level classes and functions, and the methods of module-level classes."""
    found: dict[ast.AST, Definition] = {}
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS):
            continue
        outer = found[node] = Definition(f"{module}.{node.name}", node.name, None)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFINITIONS) and not member.name.startswith("__"):
                    qualname = f"{outer.qualname}.{member.name}"
                    found[member] = Definition(qualname, member.name, outer)
    return found


def _references(tree: ast.Module, owners: dict[ast.AST, Definition], imports: bool):
    """``(name, innermost enclosing definition or None)`` for every reference in ``tree``."""
    refs: list[tuple[str, Optional[Definition]]] = []

    def visit(node: ast.AST, owner: Optional[Definition]) -> None:
        owner = owners.get(node, owner)
        if isinstance(node, ast.Name):
            refs.append((node.id, owner))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, owner))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and imports:
            refs.extend((alias.name.rpartition(".")[2], owner) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return refs


def census(root: Path = ROOT) -> list[str]:
    """Dotted names of the ``src/repro`` definitions no program file references, sorted."""
    definitions: list[Definition] = []
    owners_of: dict[str, list[Optional[Definition]]] = {}
    for top in PROGRAM:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owners: dict[ast.AST, Definition] = {}
            if path.is_relative_to(root / PACKAGE):
                module = path.relative_to(root / "src").with_suffix("").parts
                module = module[:-1] if module[-1] == "__init__" else module
                owners = _definitions(tree, ".".join(module))
                definitions.extend(owners.values())
            for name, owner in _references(tree, owners, imports=path.name != "__init__.py"):
                owners_of.setdefault(name, []).append(owner)

    dead: set[Definition] = set()
    while True:
        now_dead = {
            definition for definition in definitions
            if not any(
                (owner is None or not (owner in dead or owner.parent in dead))
                and not definition.encloses(owner)
                for owner in owners_of.get(definition.name, ())
            )
        }
        if now_dead == dead:
            break
        dead = now_dead
    return sorted(
        definition.qualname for definition in dead if definition.parent not in dead
    )


def main(argv: list[str]) -> int:
    names = census()
    for name in names:
        print(name)
    print(f"{len(names)} definitions referenced only from tests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
