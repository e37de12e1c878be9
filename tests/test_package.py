"""Package surface: every name a module exports exists, every error is numerical."""

import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_module_exceptions_are_arithmetic(name):
    # the CLI maps ArithmeticError to exit 3; any other exception class
    # raised from a module would end in a traceback
    module = importlib.import_module(f"conformalflow.{name}")
    defined = [
        cls
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ]
    assert [cls for cls in defined if not issubclass(cls, ArithmeticError)] == []
