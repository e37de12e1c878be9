"""Run one benchmark workload of conformalflow and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload track-n512 --seed 20170623 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
A run repeats one solve of the workload, with untimed output checks after
each, for as many solves as fit in ``--seconds`` (at least one), and reports
medians.  Between solves, at evenly spaced times of the run, it times
set-up in fresh interpreters.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced solves and reports the per-layer metrics of
the traced ones, with the tracing overhead (tracing.py); its spans are written to
``.bench_out/spans-<workload>.csv`` when the run ends.  ``--workload all``
runs every workload in its own process, so that each peak RSS is its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: on a 2-vCPU host OpenBLAS's second thread made the N=512
# solves no faster (spectrum-n512 slower) and exposed them to load on the other vCPU.
# Set before numpy is first imported; child processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
NAMES = ("drift-n48", "track-n512", "spectrum-n512")
#: the seed to tune on, and the held-out seed that rechecks a claim
SEEDS = json.loads((BENCH_DIR / "seeds.json").read_text())
#: child processes per run that time a cold import plus input generation
SETUP_REPEATS = 7

_SETUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from time import perf_counter
start = perf_counter()
import conformalflow
import workloads
workloads.make_inputs({name!r}, {seed!r}, {size!r}, {workdir!r})
elapsed = perf_counter() - start
if not conformalflow.__file__.startswith({src!r} + "/"):
    sys.exit("conformalflow was not imported from the checkout")
print(repr(elapsed))
"""


class CheckoutError(RuntimeError):
    """The working directory is not a checkout of conformalflow."""


def use_checkout_source(root: Path) -> Path:
    """Put the checkout's ``src`` first on sys.path and import the program from it."""
    src = root / "src"
    if not (src / "conformalflow" / "__init__.py").is_file():
        raise CheckoutError(f"no src/conformalflow under {root}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import conformalflow

    if not Path(conformalflow.__file__).resolve().is_relative_to(src.resolve()):
        raise CheckoutError(f"conformalflow was imported from {conformalflow.__file__}, not {src}")
    return src


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- run header


def _blas_threads() -> int | str:
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown"


def _l3_cache() -> str:
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"
    if size.endswith("K") and size[:-1].isdigit():
        return f"{int(size[:-1]) / 1024:g} MiB"
    return size


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_header(root: Path, src: Path) -> dict:
    """Facts about the machine and the code, printed for information only."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "l3_cache": _l3_cache(),
        "src_loc": sum(len(p.read_text().splitlines()) for p in (src / "conformalflow").glob("*.py")),
    }


# ---------------------------------------------------------------- measuring


def measure_setup(src: Path, name: str, seed: int, size: str, workdir: Path) -> float:
    """Seconds a fresh interpreter spends importing conformalflow and generating inputs."""
    code = _SETUP_CHILD.format(
        src=str(src), bench=str(BENCH_DIR), name=name, seed=seed, size=size, workdir=str(workdir)
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(
    root: Path,
    src: Path,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
) -> dict:
    """Measure one workload; returns the metric values and the check outcome."""
    import tracing
    import workloads

    out = root / ".bench_out"
    workdir = out / f"work-{name}-{os.getpid()}"
    inp = workloads.make_inputs(name, seed, size, workdir)
    tracer = tracing.Tracer() if trace else None
    setup, walls, traced_walls, layer_samples, failures = [], [], [], [], []
    attempted = failed = 0

    def sample_setup(until: float) -> None:
        # The samples are spread over the run, so that a swing in the host's
        # speed reaches only some of them.
        while not trace and len(setup) < SETUP_REPEATS and len(setup) * seconds / SETUP_REPEATS <= until:
            setup.append(measure_setup(src, name, seed, size, workdir))

    start = perf_counter()
    try:
        # Solve until the next solve, as long as the last one, would end past
        # ``seconds``; a traced run needs one untraced and one traced solve.
        wall = 0.0
        while len(walls) + len(traced_walls) < (2 if trace else 1) or perf_counter() - start + wall <= seconds:
            sample_setup(perf_counter() - start)
            traced = trace and len(traced_walls) < len(walls)
            workloads.reset_workdir(inp)
            if traced:
                tracer.notes.clear()
                first = len(tracer.spans)
                tracer.install()
                try:
                    t0 = perf_counter()
                    raw = workloads.solve(inp)
                    wall = perf_counter() - t0
                    traced_walls.append(wall)
                finally:
                    tracer.uninstall()
                layer_samples.append(tracing.per_layer_metrics(tracer, first, len(tracer.spans)))
            else:
                t0 = perf_counter()
                raw = workloads.solve(inp)
                wall = perf_counter() - t0
                walls.append(wall)
            fails = workloads.check(inp, workloads.collect(inp, raw))
            attempted += workloads.attempted(inp)
            failed += len({op for op, _ in fails})
            failures.extend(fails)
        sample_setup(float("inf"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = tracing.median_metrics(layer_samples)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        tracer.write_spans(out / f"spans-{name}.csv")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "values": values,
        "walls": walls,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def result_line(spec: dict, trace: bool, run: dict) -> dict:
    """The final JSON object: exactly the metrics BENCHMARK.json lists for this mode."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    if names != set(run["values"]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(run['values']))}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]} for m in listed},
    }


# ---------------------------------------------------------------- CLI


def _seconds(walls: list[float]) -> str:
    return "[" + ", ".join(f"{w:.3f}" for w in walls) + "] s"


def _print_report(name: str, line: dict, run: dict) -> None:
    print(f"# {name}: untraced solves {_seconds(run['walls'])}; traced solves {_seconds(run['traced_walls'])}")
    for metric, entry in line["metrics"].items():
        print(f"#   {metric} = {entry['value']:.6g} {entry['unit']}")
    frac = line["failed"] / line["attempted"]
    print(f"#   failed_frac = {frac:.6g} ratio ({line['failed']} of {line['attempted']} operations)")
    for op, check in run["failures"][:20]:
        print(f"#   failed check: operation {op}: {check}")


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    lines = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        out = done.stdout.strip().splitlines()
        if done.returncode != 0 or not out:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(out[:-1]))
        lines[name] = json.loads(out[-1])
    print(
        json.dumps(
            {
                "correct": all(line["correct"] for line in lines.values()),
                "attempted": sum(line["attempted"] for line in lines.values()),
                "failed": sum(line["failed"] for line in lines.values()),
                "metrics": {
                    f"{name}.{metric}": entry
                    for name, line in lines.items()
                    for metric, entry in line["metrics"].items()
                },
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=SEEDS["development"])
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    try:
        src = use_checkout_source(root)
        spec = load_spec(root)
    except (CheckoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    print("# header " + json.dumps(run_header(root, src)))
    run = run_workload(root, src, args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(spec, bool(args.trace), run)
    _print_report(args.workload, line, run)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
