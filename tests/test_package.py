"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import conformalflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(conformalflow.__path__))


def test_modules_are_discovered():
    assert {"flow", "lab", "modulation"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # perfbench's tracer wraps functions by these names, so a stale entry
    # left by a deletion would crash a traced run
    module = importlib.import_module(f"conformalflow.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
