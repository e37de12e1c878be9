"""Package surface: every name a module exports exists, every error is numerical,
and importing the package loads no scipy and no numpy.fft."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import conformalflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(conformalflow.__path__))
ROOT = Path(__file__).resolve().parent.parent

# prints the scipy modules loaded after the import and after each command,
# and the numpy.fft modules loaded by the import
_COLD_START = """
import contextlib, io, json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import conformalflow
loaded = {"import": scipy_modules()}
loaded["import numpy.fft"] = sorted(m for m in sys.modules if m.startswith("numpy.fft"))
from conformalflow.lab import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify-identities"])]
    loaded["verify-identities"] = scipy_modules()
    out = os.path.join(sys.argv[1], "simulate")
    codes.append(main(["simulate", "--n", "8", "--t-end", "0.5", "--out", out]))
    loaded["simulate"] = scipy_modules()
    out = os.path.join(sys.argv[1], "drift")
    codes.append(main(["drift-study", "--n", "8", "--ensemble", "1", "--t-end", "0.5", "--out", out]))
    loaded["drift-study"] = scipy_modules()
    codes.append(main(["spectrum", "--n", "128", "--out", sys.argv[1]]))
    loaded["spectrum"] = scipy_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_modules_are_discovered():
    assert {"flow", "lab", "modulation"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # perfbench's tracer wraps functions by these names, so a stale entry
    # left by a deletion would crash a traced run
    module = importlib.import_module(f"conformalflow.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_reexports_the_library_modules():
    # every module but the CLI's lab publishes its __all__ at package level
    library = [name for name in MODULES if name != "lab"]
    assert len(library) == 6
    for name in library:
        module = importlib.import_module(f"conformalflow.{name}")
        stale = [a for a in module.__all__ if getattr(conformalflow, a, None) is not getattr(module, a)]
        assert stale == [], name


def test_retired_names_are_off_the_surface():
    # coercivity and hankel_identity_check are deleted, and toeplitz_core is
    # private to build_ground_ops: none is a package attribute or in an __all__
    retired = {"coercivity", "hankel_identity_check", "toeplitz_core"}
    for name in MODULES:
        module = importlib.import_module(f"conformalflow.{name}")
        assert retired.isdisjoint(module.__all__), name
    assert [attr for attr in retired if hasattr(conformalflow, attr)] == []


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


def test_cold_start_imports_scipy_only_where_used(tmp_path):
    # a fresh interpreter: the import, verify-identities and the integrating
    # commands simulate and drift-study load no scipy, and spectrum loads
    # scipy.linalg but no integrator; the import loads no numpy.fft either,
    # which only the energy walk uses
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _COLD_START, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    loaded = result["loaded"]
    assert loaded["import"] == []
    assert loaded["import numpy.fft"] == []
    assert loaded["verify-identities"] == []
    assert loaded["simulate"] == []
    assert loaded["drift-study"] == []
    assert [m for m in loaded["spectrum"] if m.startswith("scipy.integrate")] == []
    assert "scipy.linalg" in loaded["spectrum"]
