"""Every demo script runs to completion against the current API, and the
spectral demos print their closed-form agreements."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: a line the demos built on linearized print once per case whose closed form
#: holds, and how many cases each has
AGREEMENTS = {
    "demo_spectra.py": (r"zero modes 3\+1|stable = True", 6),
    "demo_ladder.py": (r"expansion coefficient: (\S+) \(closed form \1\)", 2),
}


def test_demos_exit_zero():
    assert DEMOS
    # started together, one BLAS thread each so that they share the CPUs; -W error
    # carries pyproject's warnings-as-errors rule into the subprocesses
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    procs = {
        demo.name: subprocess.Popen(
            [sys.executable, "-W", "error", str(demo)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for demo in DEMOS
    }
    failed = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        if proc.returncode != 0:
            failed[name] = err.decode()[-2000:]
        elif name in AGREEMENTS:
            pattern, cases = AGREEMENTS[name]
            if len(re.findall(pattern, out.decode())) != cases:
                failed[name] = out.decode()[-2000:]
    assert not failed, failed
