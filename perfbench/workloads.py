"""The benchmark's workloads: input generation, one solve, and output checks.

Every workload drives the program as a closed loop with one caller: the next
solve starts only after the previous one has returned.  A workload is split
into four steps so that only the program's own work is timed:

    inputs = make_inputs(name, seed, size, workdir)   # set-up, timed as setup_s
    raw = solve(inputs)                               # the timed region
    result = collect(inputs, raw)                     # read outputs back
    failures = check(inputs, result)                  # (operation, check) pairs

``solve`` calls the program only through module attributes
(``lab.main``, ``flow.integrate``, ...), so the tracer in ``tracing.py`` sees
every call it wraps.  ``result`` is a plain dict, which lets the self-test
corrupt it and show that each check trips.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conformalflow import flow, lab, modulation, observables
from conformalflow.state import ground_amplitudes

#: "full" is what the benchmark measures; "tiny" is the self-test's size.
SIZES = {
    "drift-n48": {
        "full": {"n": 48, "ensemble": 8, "t_end": 10.0},
        "tiny": {"n": 24, "ensemble": 2, "t_end": 1.0},
    },
    "track-n512": {
        "full": {"n": 512, "t_end": 1.0},
        "tiny": {"n": 16, "t_end": 0.2},
    },
    "spectrum-n512": {
        "full": {"n": 512},
        # the spectrum command never goes below N = 128
        "tiny": {"n": 128},
    },
}

P0 = 0.5
DELTA = 1e-3
#: acceptance criterion 3's conservation bound, also applied to the budget error
DRIFT_TOL = 1e-8
#: the integrator's own inline oracle tolerance
ORACLE_TOL = 1e-10
#: eigenvalue, frequency and commutator errors (acceptance criteria 4 and 7)
SPECTRUM_TOL = 1e-8
#: ladder and mu-ladder eigen-residuals (acceptance criterion 8)
LADDER_TOL = 1e-9
#: closed-form summation identities (acceptance criterion 9)
IDENTITY_TOL = 1e-12

#: every check each workload makes; the self-test trips each one
CHECKS = {
    "drift-n48": (
        "exit_code",
        "n_failed",
        "member_ok",
        "energy_budget",
        "track_csv_rows",
        "oracle_field",
        "oracle_energy",
    ),
    "track-n512": ("completed", "drift_H", "drift_Q", "drift_E", "trajectory_csv_rows", "track_csv_rows"),
    "spectrum-n512": (
        "exit_code",
        "ground_minus_err",
        "ground_plus_err",
        "ground_omega_err",
        "ground_kernel",
        "ground_unstable",
        "ladder_residual",
        "mu_residual",
        "commutator",
        "single_mode_omega_err",
        "single_mode_count",
        "single_mode_unstable",
        "identities_appendix",
        "identities_mode_energy",
    ),
}


@dataclass
class Inputs:
    name: str
    seed: int
    params: dict
    workdir: Path
    argv: list[str] | None = None
    alpha0: np.ndarray | None = None
    integrator: flow.IntegratorConfig | None = None


def program_seed(seed: int) -> int:
    """Map any integer seed onto the non-negative keys the program accepts."""
    return seed % 2**32


def make_inputs(name: str, seed: int, size: str, workdir: Path) -> Inputs:
    params = dict(SIZES[name][size])
    inp = Inputs(name, program_seed(seed), params, Path(workdir))
    if name == "drift-n48":
        inp.argv = [
            "drift-study",
            "--n", str(params["n"]),
            "--p0", str(P0),
            "--delta", str(DELTA),
            "--ensemble", str(params["ensemble"]),
            "--t-end", str(params["t_end"]),
            "--seed", str(inp.seed),
            "--out", str(inp.workdir),
        ]  # fmt: skip
    elif name == "track-n512":
        n = params["n"]
        pert = lab.generate_perturbation(lab.PerturbationSpec(delta=DELTA), inp.seed, n)
        inp.alpha0 = ground_amplitudes(P0, n).astype(np.complex128) + pert
        inp.integrator = flow.IntegratorConfig(rel_tol=1e-10, t_end=params["t_end"], sample_dt=0.1)
    elif name == "spectrum-n512":
        inp.argv = ["spectrum", "--n", str(params["n"]), "--out", str(inp.workdir)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return inp


def reset_workdir(inp: Inputs) -> None:
    """Empty the output directory so that every solve writes its files afresh."""
    shutil.rmtree(inp.workdir, ignore_errors=True)
    inp.workdir.mkdir(parents=True)


def solve(inp: Inputs):
    """One solve of the workload: the only code inside the timed region.

    Returns the CLI's exit code or the trajectory; an exception the program
    raises is returned too, and counts as a failed operation.
    """
    try:
        if inp.argv is not None:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return lab.main(inp.argv)
        traj = flow.integrate(inp.alpha0, inp.integrator)
        track = modulation.track_modulation(traj, P0)
        lab.write_trajectory_csv(inp.workdir / "trajectory.csv", traj, mode_subset=(0, 1, 2, 3))
        lab.write_track_csv(inp.workdir / "track.csv", track)
        return traj
    except Exception as exc:
        return exc


def _csv_rows(path: Path) -> int:
    """Data rows of a CSV file with a header line; -1 when the file is missing."""
    if not path.is_file():
        return -1
    with open(path) as handle:
        return sum(1 for _ in handle) - 1


def _expected_samples(t_end: float, sample_dt: float) -> int:
    return int(round(t_end / sample_dt)) + 1


def collect(inp: Inputs, raw) -> dict:
    """Read the solve's outputs back into a plain dict; not timed."""
    if inp.name == "drift-n48":
        summary_path = inp.workdir / "summary.json"
        summary = json.loads(summary_path.read_text()) if summary_path.is_file() else None
        seeds = [inp.seed + m for m in range(inp.params["ensemble"])]
        t_end = inp.params["t_end"]
        return {
            "exit_code": raw,
            "summary": summary,
            "csv_rows": {s: _csv_rows(inp.workdir / f"track_{s}.csv") for s in seeds},
            # the CLI samples every min(0.5, t_end)
            "expected_rows": _expected_samples(t_end, min(0.5, t_end)),
            "oracle": _oracle_errors(inp),
        }
    if inp.name == "track-n512":
        expected = _expected_samples(inp.integrator.t_end, inp.integrator.sample_dt)
        if isinstance(raw, Exception):
            return {"error": repr(raw), "expected_rows": expected}
        return {
            "error": None,
            "drift": raw.max_relative_drift(),
            "trajectory_rows": _csv_rows(inp.workdir / "trajectory.csv"),
            "track_rows": _csv_rows(inp.workdir / "track.csv"),
            "expected_rows": expected,
        }
    report_path = inp.workdir / "spectrum.json"
    report = json.loads(report_path.read_text()) if report_path.is_file() else None
    return {"exit_code": raw, "report": report}


def _oracle_errors(inp: Inputs) -> dict:
    """Fast paths against their cubic oracles on member 0's initial state."""
    n = inp.params["n"]
    pert = lab.generate_perturbation(lab.PerturbationSpec(delta=DELTA), inp.seed, n)
    alpha0 = ground_amplitudes(P0, n).astype(np.complex128) + pert
    fast = flow.vector_field_fast(alpha0)
    naive = flow.vector_field_naive(alpha0)
    e_fast = observables.energy_fast(alpha0)
    e_naive = observables.energy_naive(alpha0)
    return {
        "field_rel": float(np.linalg.norm(fast - naive) / np.linalg.norm(naive)),
        "energy_rel": abs(e_fast - e_naive) / abs(e_naive),
    }


def attempted(inp: Inputs) -> int:
    """Operations one solve attempts: ensemble members, or the solve itself."""
    return inp.params["ensemble"] if inp.name == "drift-n48" else 1


def check(inp: Inputs, result: dict) -> list[tuple[int, str]]:
    """Failed (operation, check) pairs; empty when every output is correct."""
    if inp.name == "drift-n48":
        return _check_drift(inp, result)
    if inp.name == "track-n512":
        return _check_track(result)
    return _check_spectrum(result)


def _check_drift(inp: Inputs, res: dict) -> list[tuple[int, str]]:
    members = range(inp.params["ensemble"])
    if res["exit_code"] != 0 or res["summary"] is None:
        return [(m, "exit_code") for m in members]
    fails = []
    runs = {r["seed"]: r for r in res["summary"]["runs"]}
    for m in members:
        seed = inp.seed + m
        run = runs.get(seed)
        if run is None or not run["ok"]:
            fails.append((m, "member_ok"))
        elif not run["max_energy_budget_error"] <= DRIFT_TOL:
            fails.append((m, "energy_budget"))
        if res["csv_rows"].get(seed) != res["expected_rows"]:
            fails.append((m, "track_csv_rows"))
    if res["summary"]["n_failed"] != 0 and not fails:
        # the summary reports failures that no member record shows
        fails.extend((m, "n_failed") for m in members)
    if not res["oracle"]["field_rel"] <= ORACLE_TOL:
        fails.append((0, "oracle_field"))
    if not res["oracle"]["energy_rel"] <= ORACLE_TOL:
        fails.append((0, "oracle_energy"))
    return fails


def _check_track(res: dict) -> list[tuple[int, str]]:
    if res["error"] is not None:
        return [(0, "completed")]
    fails = [(0, f"drift_{q}") for q in "HQE" if not res["drift"][q] <= DRIFT_TOL]
    if res["trajectory_rows"] != res["expected_rows"]:
        fails.append((0, "trajectory_csv_rows"))
    if res["track_rows"] != res["expected_rows"]:
        fails.append((0, "track_csv_rows"))
    return fails


def _check_spectrum(res: dict) -> list[tuple[int, str]]:
    if res["exit_code"] != 0 or res["report"] is None:
        return [(0, "exit_code")]
    fails = []
    for entry in res["report"]["ground"].values():
        for key in ("minus_err", "plus_err", "omega_err"):
            if not entry[key] <= SPECTRUM_TOL:
                fails.append((0, f"ground_{key}"))
        if (entry["zero_geometric"], entry["jordan_partners"]) != (3, 1):
            fails.append((0, "ground_kernel"))
        if entry["unstable"]:
            fails.append((0, "ground_unstable"))
        # the ladders and commutators are computed for p > 0 only
        for key, check, tol in (
            ("ladder_max_residual", "ladder_residual", LADDER_TOL),
            ("mu_max_residual", "mu_residual", LADDER_TOL),
            ("commutator_max", "commutator", SPECTRUM_TOL),
        ):
            if key in entry and not entry[key] <= tol:
                fails.append((0, check))
    for entry in res["report"]["single_mode"].values():
        if not entry["omega_err"] <= SPECTRUM_TOL:
            fails.append((0, "single_mode_omega_err"))
        if entry["count_got"] != entry["count_expected"]:
            fails.append((0, "single_mode_count"))
        if entry["unstable"]:
            fails.append((0, "single_mode_unstable"))
    identities = res["report"]["identities"]
    if not identities:
        fails.append((0, "identities_appendix"))
    for entry in identities.values():
        if not max(entry["appendix"].values()) <= IDENTITY_TOL:
            fails.append((0, "identities_appendix"))
        energy = entry["mode_energy"]
        errors = (abs(energy["orthogonality"]), energy["inner_rel_err"], energy["series_rel_err"])
        if not max(errors) <= IDENTITY_TOL:
            fails.append((0, "identities_mode_energy"))
    return fails
