"""Fixtures shared by the benchmark's own tests."""

from __future__ import annotations

import importlib
import sys
import types

import pytest

from bench import run
from bench.trace import SPAN_TARGETS


def layer_bindings() -> dict:
    """Identity of everything a :class:`~bench.trace.Tracer` could rebind, as it is now:
    the target class attributes and every function-valued global of a loaded ``repro`` module."""
    found = {}
    for _, module_name, attribute in SPAN_TARGETS:
        importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(sys.modules[module_name], class_name)
            found[(module_name, attribute)] = id(vars(owner).get(method))
    for module_name, module in list(sys.modules.items()):
        if module is not None and module_name.partition(".")[0] == "repro":
            for attribute, value in vars(module).items():
                if isinstance(value, types.FunctionType):
                    found[(module_name, attribute)] = id(value)
    return found


@pytest.fixture(scope="session")
def quick_suite():
    """One ``--quick`` suite run in this process: ``(result, bindings before, bindings after)``."""
    before = layer_bindings()
    result = run.run_suite(seed=7, repeats=1, seconds=0.0, trace=True, quick=True)
    return result, before, layer_bindings()
