#!/usr/bin/env python3
"""Import every module of ``src/repro`` first, each in a clean slate of ``repro`` modules.

For each module, every ``repro`` entry is dropped from ``sys.modules`` and the module is
imported in the same interpreter.  Python runs ``repro/__init__.py`` before any submodule, and
it imports ``repro.api``, which reaches every layer; so each round replays that one import
chain, then loads the named module on top of it (the experiments, say, which the chain does
not reach).  A package ``__init__`` that re-enters a module still half-loaded along that chain
fails here, naming the module that was asked for; ``tests/test_layering.py`` checks the import
graph statically and cannot see it.

Usage::

    python tools/import_each.py    # prints each failure; exits 1 if there is any
"""

from __future__ import annotations

import importlib
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def module_names() -> list[str]:
    """Every module under ``src/repro``, dotted, a package by its ``__init__``'s name."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def main() -> int:
    sys.path.insert(0, str(SRC))
    failures = 0
    for name in module_names():
        for loaded in [key for key in sys.modules if key.partition(".")[0] == "repro"]:
            del sys.modules[loaded]
        try:
            importlib.import_module(name)
        except Exception:
            failures += 1
            print(f"importing {name} first fails:", file=sys.stderr)
            traceback.print_exc()
    print(f"{len(module_names())} modules imported first, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
