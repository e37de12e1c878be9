"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exit_zero():
    assert DEMOS
    # started together, one BLAS thread each so that they share the CPUs; -W error
    # carries pyproject's warnings-as-errors rule into the subprocesses
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    procs = {
        demo.name: subprocess.Popen(
            [sys.executable, "-W", "error", str(demo)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        for demo in DEMOS
    }
    failed = {}
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=300)
        if proc.returncode != 0:
            failed[name] = err.decode()[-2000:]
    assert not failed, failed
