"""Experiment orchestration, seeded randomness, persistence, and the CLI.

Randomness uses numpy's Philox counter-based generator so that a seed fully
determines every ensemble member, independent of execution order.  CSV is
the canonical output format for series; one JSON writer serves the reports
(metadata.json, spectrum.json, inequality.json, summary.json).

CLI subcommands: simulate | spectrum | inequality | decompose | drift-study.
Settings are flags only.  Each is declared once, in ``_SETTINGS``, and each
command once, in ``_COMMANDS``, with the flags it reads: it accepts no other
flag, and ``<command> --help`` lists them.  Only the flags given pass on, so
the config dataclasses hold the only defaults.  Exit codes:
0 success, 2 validation failure or an output file that cannot be written,
3 numerical failure (any ``ArithmeticError``, the base of ``FlowError`` and
``NoConvergence``) or a result past its bounds.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import linearized, modulation
from .flow import IntegratorConfig, TrajectoryRecord, integrate
from .observables import charge, gap
from .state import ground_amplitudes, weighted_norm

__all__ = [
    "ExperimentConfig",
    "MAX_DELTA",
    "MAX_MODES",
    "PerturbationSpec",
    "generate_perturbation",
    "random_state",
    "run_inequality_scan",
    "run_spectrum_suite",
    "run_drift_study",
    "write_trajectory_csv",
    "write_track_csv",
    "main",
]


def _check_delta(delta: float) -> None:
    if not 0 <= delta <= MAX_DELTA:
        raise ValueError(f"delta must lie in [0, {MAX_DELTA}], got {delta}")


@dataclass
class PerturbationSpec:
    """Seeded random perturbation with exact h^1 norm delta."""

    delta: float

    def __post_init__(self) -> None:
        _check_delta(self.delta)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _uniform_disc(rng: np.random.Generator, size: int) -> np.ndarray:
    radius = np.sqrt(rng.random(size))
    phase = 2.0 * np.pi * rng.random(size)
    return radius * np.exp(1j * phase)


def generate_perturbation(spec: PerturbationSpec, seed: int, n_modes: int) -> np.ndarray:
    """Deterministic perturbation: uniform complex disc per mode, exact h^1
    normalization."""
    out = _uniform_disc(_rng(seed), n_modes)
    if spec.delta == 0.0:
        return np.zeros(n_modes, dtype=np.complex128)
    norm = weighted_norm(out, 1.0)
    if norm == 0.0:
        raise ValueError("perturbation support is empty")
    return out * (spec.delta / norm)


def random_state(seed: int, n_modes: int, q_normalize: float | None = None) -> np.ndarray:
    """Random state with entries uniform in the complex unit disc; optionally
    rescaled to a prescribed charge Q >= 0."""
    if q_normalize is not None and not 0.0 <= q_normalize < np.inf:
        raise ValueError(f"q_normalize must be a finite charge >= 0, got {q_normalize}")
    alpha = _uniform_disc(_rng(seed), n_modes)
    if q_normalize is not None:
        alpha *= np.sqrt(q_normalize / charge(alpha))
    return alpha


#: largest truncation N a run may ask for; at N = 4096 each dense N x N operator
#: takes 0.13 GiB, while a field evaluation's blocked walk peaks at about 5 MiB
MAX_MODES = 4096
#: largest perturbation size delta, the h^1 norm of the unit-charge ground state
#: A(0).  Beyond it DOP853's step falls like 1/delta^2: at N = 8 a run to t = 1
#: takes 4 accepted steps at delta = 1, 20 at 10 and 1501 at 100
MAX_DELTA = 1.0


@dataclass
class ExperimentConfig:
    kind: str = "simulate"
    n_modes: int = 64
    p0: float = 0.5
    delta: float = 1e-3
    seed: int = 12345
    ensemble: int = 32
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    out_dir: Path | str | None = None  # "" (an empty --out) writes nothing

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir) if self.out_dir else None
        if not 8 <= self.n_modes <= MAX_MODES:
            raise ValueError(f"truncation must lie in 8..{MAX_MODES}, got {self.n_modes}")
        if not 0.0 <= self.p0 < 1.0:
            raise ValueError("p0 must lie in [0, 1)")
        _check_delta(self.delta)
        # the theorem ratio dist_h1 / (delta + (p0 - p)^{1/2}) is 0/0 at t = 0 for delta = 0
        if self.kind == "drift-study" and self.delta == 0.0:
            raise ValueError("drift-study needs delta > 0")
        if self.ensemble < 1:
            raise ValueError(f"ensemble must be at least 1, got {self.ensemble}")
        # Philox keys are unsigned 128-bit; drift-study member m draws from seed + m
        last = self.seed + (self.ensemble - 1 if self.kind == "drift-study" else 0)
        if not 0 <= self.seed <= last < 2**128:
            raise ValueError(f"seeds {self.seed}..{last} must lie in [0, 2**128)")


# ---------------------------------------------------------------- experiments


def _perturbed_ground(cfg: ExperimentConfig, seed: int) -> np.ndarray:
    """A(p0) plus the seeded perturbation of h^1 norm cfg.delta."""
    base = ground_amplitudes(cfg.p0, cfg.n_modes).astype(np.complex128)
    return base + generate_perturbation(PerturbationSpec(delta=cfg.delta), seed, cfg.n_modes)


#: the inequality scan's random states, their truncation N, and its random
#: truncated geometric sequences
SCAN_RANDOM_STATES = 10_000
SCAN_MODES = 32
SCAN_GEOMETRIC_STATES = 100
#: states per stacked gap call of the inequality scan; bounds its memory (at
#: 10 000 states, N = 32 peak RSS grew 2.6 MiB over one-state calls, 4.6 at 1000)
SCAN_CHUNK = 500


def run_inequality_scan(seed: int) -> dict:
    """Energy-bound scan: min(Q^2 - H) over random states and the saturation
    residual on random truncated geometric sequences.

    States are drawn one by one from the seeded stream and their gaps taken
    in stacks of at most ``SCAN_CHUNK``.
    """
    rng = _rng(seed)
    minima = [np.inf]  # np.min keeps a NaN gap, so the verdict fails on it
    for start in range(0, SCAN_RANDOM_STATES, SCAN_CHUNK):
        count = min(SCAN_CHUNK, SCAN_RANDOM_STATES - start)
        chunk = [_uniform_disc(rng, SCAN_MODES) for _ in range(count)]
        minima.append(np.min(gap(np.array(chunk))))
    geo_n = 160  # |p|^N < 1e-13 for |p| <= 0.8
    geometric = []
    for _ in range(SCAN_GEOMETRIC_STATES):
        p = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        c = _uniform_disc(rng, 1)[0]
        geometric.append(c * p ** np.arange(geo_n))
    max_sat = np.max(np.abs(gap(np.array(geometric).reshape(-1, geo_n))), initial=0.0)
    return {"min_gap_random": float(np.min(minima)), "max_gap_geometric": float(max_sat)}


#: ground-state parameters p and single-mode indices the spectrum suite checks
SPECTRUM_P_GRID = (0.0, 0.3, 0.6)
SPECTRUM_SINGLE_MODES = (0, 1, 2)
#: the lowest truncation the spectrum suite runs at
SPECTRUM_MIN_MODES = 128
#: spectrum exits 3 past these bounds.  Eigenvalue, frequency and commutator
#: errors: worst 2.8e-14 at N = 128, 512 and 1024
SPECTRUM_TOL = 1e-8
#: ladder and mu-ladder eigen-residuals (worst 2.1e-12), the ladder's
#: commutation and first-vector residuals and its shift angle (worst 2.9e-14
#: at N <= 1024), and the relative errors of the mu-ladder's m = 1 and m = 2
#: coefficients (worst 3.7e-15 at N <= 1024, p in {0.3, 0.4, 0.6})
LADDER_TOL = 1e-9
#: ladder_check's scalar numbers, written to spectrum.json under their own names
_LADDER_FIELDS = (
    "commutation_residual_S",
    "commutation_residual_Sstar",
    "v1_residual",
    "v1_shift_angle",
)
#: appendix identities and the mode-energy relation, at every p > 0 of
#: SPECTRUM_P_GRID (worst 4.9e-16 and 1.6e-16)
IDENTITY_TOL = 1e-12


def run_spectrum_suite(n_modes: int) -> dict:
    """Closed-form spectral checks over SPECTRUM_P_GRID and SPECTRUM_SINGLE_MODES,
    at truncation ``n_modes`` raised to at least SPECTRUM_MIN_MODES."""
    n_modes = max(n_modes, SPECTRUM_MIN_MODES)
    report: dict = {"n_modes": n_modes, "ground": {}, "single_mode": {}, "identities": {}}
    for p in SPECTRUM_P_GRID:
        ops = linearized.build_ground_ops(p, n_modes)
        top_minus = linearized.spectrum(ops.Lminus, count=12)
        top_plus = linearized.spectrum(ops.Lplus, count=12)
        lam_star = 2.0 * (1.0 + p * p) / (1.0 - p * p)
        expect_minus = np.array([0.0, 0.0] + [-m for m in range(1, 11)])
        expect_plus = np.array([lam_star, 0.0] + [-m for m in range(1, 11)])
        expect_omega = np.array([(m - 1) / (m + 1) for m in range(2, 11)])
        # the two zeros and Omega_2 .. Omega_10
        stab = linearized.stability_spectrum(ops, 2 + expect_omega.size)
        report["ground"][p] = {
            "minus_err": float(np.max(np.abs(top_minus - expect_minus))),
            "plus_err": float(np.max(np.abs(top_plus - expect_plus))),
            "omega_err": _frequency_error(stab.omegas, expect_omega),
            "reduction": stab.reduction,
            "solved": stab.solved,
            "count_got": int(stab.omegas.size),
            "count_expected": int(expect_omega.size),
            "zero_geometric": stab.zero_geometric,
            "jordan_partners": stab.jordan_partners,
            "unstable": stab.unstable,
        }
        if p > 0:
            ladder = linearized.ladder_check(ops)
            mu = linearized.mu_ladder(ops)
            comm = linearized.commutators(ops)
            report["ground"][p].update(
                {
                    "ladder_max_residual": float(np.max(ladder.eigen_residuals)),
                    **{name: float(getattr(ladder, name)) for name in _LADDER_FIELDS},
                    "mu_max_residual": float(np.max(mu.residuals)),
                    "mu_coefficient_err": _mu_coefficient_error(p, mu.coefficients),
                    "commutator_max": float(np.max(comm)),
                }
            )
            report["identities"][p] = {
                "appendix": linearized.appendix_identities(p),
                "mode_energy": linearized.mode_energy_relation(p),
            }
    for mode in SPECTRUM_SINGLE_MODES:
        ops = linearized.build_single_mode_ops(mode, n_modes)
        stab = linearized.stability_spectrum(ops)
        expected = _single_mode_omegas(mode, n_modes)
        report["single_mode"][mode] = {
            "omega_err": _frequency_error(stab.omegas, expected),
            "reduction": stab.reduction,
            "solved": stab.solved,
            "count_got": int(stab.omegas.size),
            "count_expected": int(expected.size),
            "unstable": stab.unstable,
        }
    return report


def _spectrum_failures(report: dict) -> list[str]:
    """Names of the spectrum-suite report's entries that miss the closed forms."""
    bounds = dict.fromkeys(("minus_err", "plus_err", "omega_err", "commutator_max"), SPECTRUM_TOL)
    bounds |= dict.fromkeys(
        ("ladder_max_residual", "mu_max_residual", "mu_coefficient_err", *_LADDER_FIELDS), LADDER_TOL
    )
    failed = []
    for group in ("ground", "single_mode"):
        for key, entry in report[group].items():
            # an entry holds some of the keys (ladders exist for p > 0 only);
            # "not <=" also catches NaN
            failed += [
                f"{group} {key} {name}"
                for name, tol in bounds.items()
                if name in entry and not entry[name] <= tol
            ]
            if entry["count_got"] != entry["count_expected"]:
                failed.append(f"{group} {key} count")
            if entry["unstable"]:
                failed.append(f"{group} {key} unstable")
    for p, entry in report["ground"].items():
        if (entry["zero_geometric"], entry["jordan_partners"]) != (3, 1):
            failed.append(f"ground {p} kernel")
    # the largest appendix error, and the largest of the mode-energy relation's
    # |orthogonality| and two relative errors; np.max, unlike max, returns NaN
    # wherever a NaN sits
    for p, entry in report["identities"].items():
        relation = entry["mode_energy"]
        errors = {
            "appendix": np.max(list(entry["appendix"].values())),
            "mode_energy": np.max(
                [abs(relation["orthogonality"]), relation["inner_rel_err"], relation["series_rel_err"]]
            ),
        }
        failed += [f"identities {p} {name}" for name, err in errors.items() if not err <= IDENTITY_TOL]
    return failed


def _mu_coefficient_error(p: float, coefficients: list[np.ndarray]) -> float:
    """Largest relative error of ``mu_ladder``'s m = 1 and m = 2 coefficients
    against their closed forms (``mu_ladder``'s docstring); NaN stays NaN."""
    q = p * p
    ratio = (1.0 + q) / (1.0 - q)
    closed = ([-ratio, 1.0], [2.0 * (1.0 + q + q * q) / (1.0 - q) ** 2, -3.0 * ratio, 1.0])
    errors = [np.abs(got - want) / np.abs(want) for got, want in zip(coefficients[1:3], closed)]
    return float(np.max(np.concatenate(errors)))


def _frequency_error(got: np.ndarray, expected: np.ndarray) -> float:
    """Max |got - expected| of two ascending frequency lists, inf when their sizes differ."""
    return float(np.max(np.abs(got - expected), initial=0.0)) if got.size == expected.size else np.inf


def _single_mode_omegas(mode: int, n_modes: int) -> np.ndarray:
    """Nonzero frequencies of the truncated single-mode stability problem, ascending."""
    block = [2.0 * (mode - n) / (2 * mode + 1 - n) for n in range(mode)]
    tail = [(n - 2 * mode - 1) / (n + 1.0) for n in range(2 * mode + 2, n_modes)]
    return np.sort(block + tail)


@dataclass
class DriftRunSummary:
    """One drift-study member; its summary.json record is these fields
    followed by the run's ``TrajectoryRecord.telemetry()``."""

    seed: int
    ok: bool
    sup_dist_h12: float = np.nan
    sup_dist_h1: float = np.nan
    min_p: float = np.nan
    max_p_drop: float = np.nan
    theorem_ratio: float = np.nan  # sup dist_h1 / (delta + (p0 - p)^{1/2})
    max_energy_budget_error: float = np.nan
    newton_iters: int = 0  # over all frames of the track
    error: str = ""


def run_drift_study(cfg: ExperimentConfig) -> dict:
    """Ensemble of seeded perturbations of A(p0): integrate, track modulation,
    summarize distances and the possible downward drift of p(t).

    With ``cfg.out_dir`` set (an existing directory), writes one
    ``track_<seed>.csv`` per member and ``summary.json``.
    """
    out_dir = cfg.out_dir
    runs: list[dict] = []
    wall_start = time.perf_counter()
    for member in range(cfg.ensemble):
        seed = cfg.seed + member
        try:
            traj = integrate(_perturbed_ground(cfg, seed), cfg.integrator)
            track = modulation.track_modulation(traj, cfg.p0)
        except ArithmeticError as exc:
            # a failed member: a no-step record's counters, null for each number not measured
            failed = asdict(DriftRunSummary(seed=seed, ok=False, error=str(exc)))
            failed |= TrajectoryRecord(*[np.empty(0)] * 5).telemetry()
            runs.append({k: None if isinstance(v, float) and np.isnan(v) else v for k, v in failed.items()})
            continue
        drop = cfg.p0 - track.p
        denom = cfg.delta + np.sqrt(np.clip(drop, 0.0, None))
        summary = DriftRunSummary(
            seed=seed,
            ok=True,
            sup_dist_h12=float(np.max(track.dist_h12)),
            sup_dist_h1=float(np.max(track.dist_h1)),
            min_p=float(np.min(track.p)),
            max_p_drop=float(np.max(drop)),
            theorem_ratio=float(np.max(track.dist_h1 / denom)),
            max_energy_budget_error=float(np.max(np.abs(track.energy_budget_error))),
            newton_iters=int(np.sum(track.newton_iters)),
        )
        runs.append(asdict(summary) | traj.telemetry())
        if out_dir is not None:
            write_track_csv(out_dir / f"track_{seed}.csv", track)
    ok_runs = [r for r in runs if r["ok"]]
    result = {
        "config": asdict(cfg),
        "wall_time_s": time.perf_counter() - wall_start,
        "runs": runs,
        "n_failed": len(runs) - len(ok_runs),
    }
    if ok_runs:
        result["ensemble"] = {
            "sup_dist_h12": max(r["sup_dist_h12"] for r in ok_runs),
            "sup_dist_h1": max(r["sup_dist_h1"] for r in ok_runs),
            "min_p": min(r["min_p"] for r in ok_runs),
            "max_p_drop": max(r["max_p_drop"] for r in ok_runs),
            "max_theorem_ratio": max(r["theorem_ratio"] for r in ok_runs),
            "max_energy_budget_error": max(r["max_energy_budget_error"] for r in ok_runs),
        }
    if out_dir is not None:
        _write_json(out_dir / "summary.json", result)
    return result


# ---------------------------------------------------------------- persistence


def _write_columns(path: Path, columns: dict[str, np.ndarray]) -> None:
    """CSV with one named column per series, 17 significant digits (round-trips)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in zip(*columns.values()):
            writer.writerow([f"{value:.17g}" for value in row])


def write_trajectory_csv(
    path: Path, traj: TrajectoryRecord, mode_subset: tuple[int, ...] = ()
) -> None:
    columns = {"t": traj.times, "H": traj.H, "Q": traj.Q, "E": traj.E}
    for n in mode_subset:
        columns[f"re{n}"] = traj.states[:, n].real
        columns[f"im{n}"] = traj.states[:, n].imag
    _write_columns(path, columns)


def write_track_csv(path: Path, track: modulation.ModulationTrack) -> None:
    """One column per ``ModulationTrack`` field, in field order."""
    renamed = {"times": "t", "constraint_residual": "residual"}
    columns = {renamed.get(f.name, f.name): getattr(track, f.name) for f in fields(track)}
    _write_columns(path, columns)


def _write_json(path: Path, payload: dict) -> None:
    """The one JSON writer; ``default=str`` spells out paths."""
    path.write_text(json.dumps(payload, indent=2, default=str))


# ------------------------------------------------------------------------ CLI


#: every CLI setting, once: flag -> (ExperimentConfig or IntegratorConfig field, type)
_SETTINGS = {
    "n": ("n_modes", int),
    "p0": ("p0", float),
    "delta": ("delta", float),
    "seed": ("seed", int),
    "t-end": ("t_end", float),
    "out": ("out_dir", str),
    "rel-tol": ("rel_tol", float),
    "ensemble": ("ensemble", int),
}

#: every command, once: name -> the _SETTINGS flags it reads, the only ones it accepts
_COMMANDS = {
    "simulate": ("n", "p0", "delta", "seed", "t-end", "rel-tol", "out"),
    "spectrum": ("n", "out"),
    "inequality": ("seed", "out"),
    "decompose": ("n", "p0", "delta", "seed"),
    "drift-study": tuple(_SETTINGS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformalflow",
        description="Numerical laboratory for the truncated conformal flow on the 3-sphere.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, reads in _COMMANDS.items():
        sub = commands.add_parser(command)
        for flag in reads:
            # a flag not given sets nothing, so the dataclass default holds; the
            # metavar is derived from the flag, as argparse does without a dest
            name, kind = _SETTINGS[flag]
            metavar = flag.upper().replace("-", "_")
            sub.add_argument(
                f"--{flag}", dest=name, type=kind, metavar=metavar, default=argparse.SUPPRESS
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    given = vars(_build_parser().parse_args(argv))
    command = given.pop("command")
    try:
        run = {f.name: given.pop(f.name) for f in fields(IntegratorConfig) if f.name in given}
        integrator = IntegratorConfig(**run)
        cfg = ExperimentConfig(kind=command, integrator=integrator, **given)
        if cfg.out_dir is not None:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
        failed = _dispatch(cfg)
    except ArithmeticError as exc:  # FlowError, NoConvergence and the residual contracts
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output file that cannot be written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    if failed:
        print(f"{command} outside its bounds: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def _dispatch(cfg: ExperimentConfig) -> list[str]:
    """Run the command, print and write its results; return the checks it failed."""
    out_dir = cfg.out_dir
    if cfg.kind == "simulate":
        alpha0 = _perturbed_ground(cfg, cfg.seed)
        wall = time.perf_counter()
        traj = integrate(alpha0, cfg.integrator)
        drift = traj.max_relative_drift()
        telemetry = traj.telemetry()
        counters = " ".join(
            f"{name}={value:.3e}" if isinstance(value, float) else f"{name}={value}"
            for name, value in telemetry.items()
        )
        print(
            f"t_end={traj.times[-1]:g} {counters} "
            f"drift H={drift['H']:.3e} Q={drift['Q']:.3e} E={drift['E']:.3e}"
        )
        if out_dir is not None:
            write_trajectory_csv(out_dir / "trajectory.csv", traj, mode_subset=(0, 1, 2, 3))
            metadata = {
                "config": asdict(cfg),
                "wall_time_s": time.perf_counter() - wall,
                "drift": drift,
                "telemetry": telemetry,
            }
            _write_json(out_dir / "metadata.json", metadata)
    elif cfg.kind == "spectrum":
        report = run_spectrum_suite(cfg.n_modes)
        _print_spectrum_report(report)
        if out_dir is not None:
            _write_json(out_dir / "spectrum.json", report)
        return _spectrum_failures(report)
    elif cfg.kind == "inequality":
        report = run_inequality_scan(seed=cfg.seed)
        print(
            f"min gap over random states: {report['min_gap_random']:.3e}; "
            f"max |gap| on geometric states: {report['max_gap_geometric']:.3e}"
        )
        if out_dir is not None:
            _write_json(out_dir / "inequality.json", report)
        bounds = {
            "min_gap_random": (-1e-10, report["min_gap_random"]),
            "max_gap_geometric": (report["max_gap_geometric"], 1e-9),
        }
        return [name for name, (low, high) in bounds.items() if not low <= high]  # NaN fails
    elif cfg.kind == "decompose":
        frame = modulation.decompose(_perturbed_ground(cfg, cfg.seed), cfg.p0)
        res = float(np.max(np.abs(frame.constraint_residuals())))
        print(
            f"c={frame.c:.12g} p={frame.p:.12g} theta={frame.theta:.12g} "
            f"mu={frame.mu:.12g} constraint_residual={res:.3e}"
        )
    elif cfg.kind == "drift-study":
        result = run_drift_study(cfg)
        if "ensemble" not in result:  # every member failed
            return ["n_failed"]
        ens = result["ensemble"]
        print(
            f"runs={cfg.ensemble} failed={result['n_failed']} "
            f"sup_dist_h12={ens['sup_dist_h12']:.3e} sup_dist_h1={ens['sup_dist_h1']:.3e} "
            f"min_p={ens['min_p']:.6g} max_p_drop={ens['max_p_drop']:.3e} "
            f"theorem_ratio={ens['max_theorem_ratio']:.3g}"
        )
    return []


def _print_spectrum_report(report: dict) -> None:
    print(f"truncation N={report['n_modes']}")
    for p, entry in report["ground"].items():
        print(
            f"ground p={p}: L- err {entry['minus_err']:.2e}, L+ err {entry['plus_err']:.2e}, "
            f"Omega err {entry['omega_err']:.2e} "
            f"({entry['reduction']} solve, solved {entry['solved']}), "
            f"kernel {entry['zero_geometric']}+"
            f"{entry['jordan_partners']} (unstable={entry['unstable']})"
        )
    for mode, entry in report["single_mode"].items():
        print(
            f"single mode N={mode}: Omega err {entry['omega_err']:.2e} "
            f"({entry['count_got']}/{entry['count_expected']} frequencies, "
            f"{entry['reduction']} solve, solved {entry['solved']}, "
            f"unstable={entry['unstable']})"
        )


if __name__ == "__main__":
    sys.exit(main())
