#!/usr/bin/env python3
"""Import every module of ``src/repro`` first, each in a clean slate of ``repro`` modules.

Two passes, each dropping every ``repro`` entry from ``sys.modules`` before each module and
importing it in the same interpreter:

- **full**: Python runs ``repro/__init__.py`` before any submodule, and it imports
  ``repro.api``, which reaches every layer; so each round replays that one import chain, then
  loads the named module on top of it (the experiments, say, which the chain does not reach);
- **bare**: ``repro`` is a bare package object (its ``__init__`` never runs), so the named
  module's own imports decide the load order, as they do for a tool that loads one module.

A package ``__init__`` that re-enters a module still half-loaded along either chain fails here,
naming the module that was asked for; ``tests/test_layering.py`` checks the import graph
statically and cannot see it.

Usage::

    python tools/import_each.py    # prints each failure; exits 1 if there is any
"""

from __future__ import annotations

import importlib
import sys
import traceback
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def module_names() -> list[str]:
    """Every module under ``src/repro``, dotted, a package by its ``__init__``'s name."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def bare_package() -> types.ModuleType:
    """A ``repro`` package object whose ``__init__`` has not run: submodules load from its path."""
    package = types.ModuleType("repro")
    package.__path__ = [str(SRC / "repro")]
    return package


def import_each(names: list[str], bare: bool) -> int:
    """Import each of ``names`` first in a clean slate (under a bare ``repro`` when ``bare``);
    print each failure and return how many failed."""
    failures, where = 0, " under a bare repro" if bare else ""
    for name in names:
        for loaded in [key for key in sys.modules if key.partition(".")[0] == "repro"]:
            del sys.modules[loaded]
        if bare:
            sys.modules["repro"] = bare_package()
        try:
            importlib.import_module(name)
        except Exception:
            failures += 1
            print(f"importing {name} first{where} fails:", file=sys.stderr)
            traceback.print_exc()
    print(f"{len(names)} modules imported first{where}, {failures} failed")
    return failures


def main() -> int:
    sys.path.insert(0, str(SRC))
    names = module_names()
    failures = import_each(names, bare=False)
    failures += import_each([name for name in names if name != "repro"], bare=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
