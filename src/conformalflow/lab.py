"""Experiment orchestration, seeded randomness, persistence, and the CLI.

Randomness uses numpy's Philox counter-based generator so that a seed fully
determines every ensemble member, independent of execution order.  CSV is
the canonical output format for series; one JSON writer serves the reports
(metadata.json, spectrum.json, inequality.json, summary.json).

CLI subcommands: simulate | spectrum | inequality | decompose | drift-study
| verify-identities.  Each setting is declared once, in ``_SETTINGS``; flags
and config-file keys pass only the values given, so the config dataclasses
hold the only defaults.  Exit codes: 0 success, 2 validation failure, 3
numerical failure (any ``ArithmeticError``, the base of ``FlowError`` and
``NoConvergence``).
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
    zero_mode0: bool = False

    def __post_init__(self) -> None:
        _check_delta(self.delta)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _uniform_disc(rng: np.random.Generator, size: int) -> np.ndarray:
    radius = np.sqrt(rng.random(size))
    phase = 2.0 * np.pi * rng.random(size)
    return radius * np.exp(1j * phase)


def generate_perturbation(spec: PerturbationSpec, seed: int, n_modes: int) -> np.ndarray:
    """Deterministic perturbation: uniform complex disc per mode, optional
    mode-0 suppression, exact h^1 normalization."""
    out = _uniform_disc(_rng(seed), n_modes)
    if spec.zero_mode0:
        out[0] = 0.0
    if spec.delta == 0.0:
        return np.zeros(n_modes, dtype=np.complex128)
    norm = weighted_norm(out, 1.0)
    if norm == 0.0:
        raise ValueError("perturbation support is empty")
    return out * (spec.delta / norm)


def random_state(seed: int, n_modes: int, q_normalize: float | None = None) -> np.ndarray:
    """Random state with entries uniform in the complex unit disc; optionally
    rescaled to a prescribed charge Q."""
    alpha = _uniform_disc(_rng(seed), n_modes)
    if q_normalize is not None:
        alpha *= np.sqrt(q_normalize / charge(alpha))
    return alpha


#: largest truncation N a run may ask for; at N = 4096 a field evaluation peaks at
#: its N x N complex pair-sum table, 0.25 GiB, and each dense N x N operator takes 0.13 GiB
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


def run_inequality_scan(
    n_random: int = 10_000,
    n_geometric: int = 100,
    n_modes: int = 32,
    seed: int = 0,
) -> dict:
    """Energy-bound scan: min(Q^2 - H) over random states and the saturation
    residual on random truncated geometric sequences."""
    rng = _rng(seed)
    min_gap = np.inf
    for _ in range(n_random):
        alpha = _uniform_disc(rng, n_modes)
        min_gap = min(min_gap, gap(alpha))
    max_sat = 0.0
    geo_n = 160  # |p|^N < 1e-13 for |p| <= 0.8
    for _ in range(n_geometric):
        p = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        c = _uniform_disc(rng, 1)[0]
        alpha = c * p ** np.arange(geo_n)
        max_sat = max(max_sat, abs(gap(alpha)))
    return {"min_gap_random": float(min_gap), "max_gap_geometric": float(max_sat)}


#: ground-state parameters p and single-mode indices the spectrum suite checks
SPECTRUM_P_GRID = (0.0, 0.3, 0.6)
SPECTRUM_SINGLE_MODES = (0, 1, 2)


def run_spectrum_suite(n_modes: int = 128) -> dict:
    """Closed-form spectral checks over SPECTRUM_P_GRID and SPECTRUM_SINGLE_MODES."""
    report: dict = {"n_modes": n_modes, "ground": {}, "single_mode": {}, "identities": {}}
    for p in SPECTRUM_P_GRID:
        ops = linearized.build_ground_ops(p, n_modes)
        top_minus = linearized.spectrum(ops.Lminus, count=12)
        top_plus = linearized.spectrum(ops.Lplus, count=12)
        lam_star = 2.0 * (1.0 + p * p) / (1.0 - p * p)
        expect_minus = np.array([0.0, 0.0] + [-m for m in range(1, 11)])
        expect_plus = np.array([lam_star, 0.0] + [-m for m in range(1, 11)])
        stab = linearized.stability_spectrum(ops)
        expect_omega = np.array([(m - 1) / (m + 1) for m in range(2, 11)])
        got_omega = stab.omegas[: expect_omega.size]
        report["ground"][p] = {
            "minus_err": float(np.max(np.abs(top_minus - expect_minus))),
            "plus_err": float(np.max(np.abs(top_plus - expect_plus))),
            "omega_err": float(np.max(np.abs(np.sort(got_omega) - np.sort(expect_omega)))),
            "reduction": stab.reduction,
            "zero_geometric": stab.zero_geometric,
            "jordan_partners": stab.jordan_partners,
            "unstable": stab.unstable,
        }
        if p > 0:
            ladder = linearized.ladder_check(p, n_modes)
            mu = linearized.mu_ladder(p, 6, n_modes)
            inner = min(64, n_modes // 2)
            comm = linearized.commutators(ops, inner)
            report["ground"][p].update(
                {
                    "ladder_max_residual": float(np.max(ladder.eigen_residuals)),
                    "mu_max_residual": float(np.max(mu.residuals)),
                    "commutator_max": max(comm),
                }
            )
            report["identities"][p] = {
                "appendix": linearized.appendix_identities(p, 50),
                "mode_energy": linearized.mode_energy_relation(p),
            }
    for mode in SPECTRUM_SINGLE_MODES:
        ops = linearized.build_single_mode_ops(mode, 1.0, n_modes)
        stab = linearized.stability_spectrum(ops)
        expected = _single_mode_omegas(mode, n_modes)
        got = np.sort(stab.omegas)
        err = (
            float(np.max(np.abs(got - np.sort(expected))))
            if got.size == expected.size
            else np.inf
        )
        report["single_mode"][mode] = {
            "omega_err": err,
            "reduction": stab.reduction,
            "count_got": int(got.size),
            "count_expected": int(expected.size),
            "unstable": stab.unstable,
        }
    return report


def _single_mode_omegas(mode: int, n_modes: int) -> np.ndarray:
    """Nonzero frequencies of the truncated single-mode stability problem."""
    block = [2.0 * (mode - n) / (2 * mode + 1 - n) for n in range(mode)]
    tail = [(n - 2 * mode - 1) / (n + 1.0) for n in range(2 * mode + 2, n_modes)]
    return np.array(block + tail)


@dataclass
class DriftRunSummary:
    seed: int
    ok: bool
    sup_dist_h12: float = np.nan
    sup_dist_h1: float = np.nan
    min_p: float = np.nan
    max_p_drop: float = np.nan
    theorem_ratio: float = np.nan  # sup dist_h1 / (delta + (p0 - p)^{1/2})
    max_energy_budget_error: float = np.nan
    error: str = ""
    # integrator counters, from TrajectoryRecord.telemetry()
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    h_min: float = np.nan
    h_max: float = np.nan
    oracle_checks: int = 0
    oracle_max_rel_err: float = np.nan


def run_drift_study(cfg: ExperimentConfig) -> dict:
    """Ensemble of seeded perturbations of A(p0): integrate, track modulation,
    summarize distances and the possible downward drift of p(t).

    With ``cfg.out_dir`` set (an existing directory), writes one
    ``track_<seed>.csv`` per member and ``summary.json``.
    """
    out_dir = cfg.out_dir
    runs: list[DriftRunSummary] = []
    wall_start = time.perf_counter()
    for member in range(cfg.ensemble):
        seed = cfg.seed + member
        try:
            traj = integrate(_perturbed_ground(cfg, seed), cfg.integrator)
            track = modulation.track_modulation(traj, cfg.p0)
        except ArithmeticError as exc:
            runs.append(DriftRunSummary(seed=seed, ok=False, error=str(exc)))
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
            **traj.telemetry(),
        )
        runs.append(summary)
        if out_dir is not None:
            write_track_csv(out_dir / f"track_{seed}.csv", track)
    ok_runs = [r for r in runs if r.ok]
    result = {
        "config": asdict(cfg),
        "wall_time_s": time.perf_counter() - wall_start,
        "runs": [asdict(r) for r in runs],
        "n_failed": len(runs) - len(ok_runs),
    }
    if ok_runs:
        result["ensemble"] = {
            "sup_dist_h12": max(r.sup_dist_h12 for r in ok_runs),
            "sup_dist_h1": max(r.sup_dist_h1 for r in ok_runs),
            "min_p": min(r.min_p for r in ok_runs),
            "max_p_drop": max(r.max_p_drop for r in ok_runs),
            "max_theorem_ratio": max(r.theorem_ratio for r in ok_runs),
            "max_energy_budget_error": max(r.max_energy_budget_error for r in ok_runs),
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
    _write_columns(
        path,
        {
            "t": track.times,
            "c": track.c,
            "p": track.p,
            "theta": track.theta,
            "mu": track.mu,
            "dist_h12": track.dist_h12,
            "dist_h1": track.dist_h1,
            "residual": track.constraint_residual,
            "energy_budget_error": track.energy_budget_error,
        },
    )


def _write_json(path: Path, payload: dict) -> None:
    """The one JSON writer; ``default=str`` spells out paths."""
    path.write_text(json.dumps(payload, indent=2, default=str))


# ------------------------------------------------------------------------ CLI


#: every CLI setting, once: flag (also the config-file key, with "-" or "_")
#: -> (ExperimentConfig or IntegratorConfig field, type)
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


def _read_config_file(path: str) -> dict:
    """Config fields from ``key = value`` lines, converted as the flags are."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if (setting := _SETTINGS.get(key.replace("_", "-"))) is None:
            raise ValueError(f"unknown config key: {key}")
        name, kind = setting
        try:
            values[name] = kind(text)
        except ValueError:
            raise ValueError(f"bad config value: {raw!r}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformalflow",
        description="Numerical laboratory for the truncated conformal flow on the 3-sphere.",
    )
    commands = "simulate spectrum inequality decompose drift-study verify-identities".split()
    parser.add_argument("command", choices=commands)
    parser.add_argument("--config", help="key = value config file")
    for flag, (name, kind) in _SETTINGS.items():
        # a flag not given sets nothing, so the dataclass default holds; the
        # metavar is derived from the flag, as argparse does without a dest
        metavar = flag.upper().replace("-", "_")
        parser.add_argument(
            f"--{flag}", dest=name, type=kind, metavar=metavar, default=argparse.SUPPRESS
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    given = vars(_build_parser().parse_args(argv))
    command, config = given.pop("command"), given.pop("config")
    try:
        # flags override the config file
        given = {**(_read_config_file(config) if config else {}), **given}
        run = {f.name: given.pop(f.name) for f in fields(IntegratorConfig) if f.name in given}
        sample_dt = min(0.5, run.get("t_end", IntegratorConfig.t_end))
        integrator = IntegratorConfig(**run, sample_dt=sample_dt)
        cfg = ExperimentConfig(kind=command, integrator=integrator, **given)
        if cfg.out_dir is not None:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
        return _dispatch(cfg)
    except ArithmeticError as exc:  # FlowError, NoConvergence and the residual contracts
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _dispatch(cfg: ExperimentConfig) -> int:
    out_dir = cfg.out_dir
    if cfg.kind == "simulate":
        alpha0 = _perturbed_ground(cfg, cfg.seed)
        wall = time.perf_counter()
        traj = integrate(alpha0, cfg.integrator)
        drift = traj.max_relative_drift()
        print(
            f"t_end={traj.times[-1]:g} accepted={traj.accepted} rejected={traj.rejected} "
            f"rhs_evals={traj.rhs_evals} h_min={traj.h_min:.3e} h_max={traj.h_max:.3e} "
            f"oracle_checks={traj.oracle_checks} oracle_max_rel_err={traj.oracle_max_rel_err:.3e} "
            f"drift H={drift['H']:.3e} Q={drift['Q']:.3e} E={drift['E']:.3e}"
        )
        if out_dir is not None:
            write_trajectory_csv(out_dir / "trajectory.csv", traj, mode_subset=(0, 1, 2, 3))
            metadata = {
                "config": asdict(cfg),
                "wall_time_s": time.perf_counter() - wall,
                "drift": drift,
                "telemetry": traj.telemetry(),
            }
            _write_json(out_dir / "metadata.json", metadata)
    elif cfg.kind == "spectrum":
        report = run_spectrum_suite(n_modes=max(cfg.n_modes, 128))
        _print_spectrum_report(report)
        if out_dir is not None:
            _write_json(out_dir / "spectrum.json", report)
    elif cfg.kind == "inequality":
        report = run_inequality_scan(seed=cfg.seed)
        print(
            f"min gap over random states: {report['min_gap_random']:.3e}; "
            f"max |gap| on geometric states: {report['max_gap_geometric']:.3e}"
        )
        if report["min_gap_random"] < -1e-10 or report["max_gap_geometric"] > 1e-9:
            print("energy bound violated beyond tolerance", file=sys.stderr)
            return 3
        if out_dir is not None:
            _write_json(out_dir / "inequality.json", report)
    elif cfg.kind == "decompose":
        frame = modulation.decompose(_perturbed_ground(cfg, cfg.seed), cfg.p0)
        res = float(np.max(np.abs(frame.constraint_residuals())))
        print(
            f"c={frame.c:.12g} p={frame.p:.12g} theta={frame.theta:.12g} "
            f"mu={frame.mu:.12g} constraint_residual={res:.3e}"
        )
    elif cfg.kind == "drift-study":
        result = run_drift_study(cfg)
        if "ensemble" in result:
            ens = result["ensemble"]
            print(
                f"runs={cfg.ensemble} failed={result['n_failed']} "
                f"sup_dist_h12={ens['sup_dist_h12']:.3e} sup_dist_h1={ens['sup_dist_h1']:.3e} "
                f"min_p={ens['min_p']:.6g} max_p_drop={ens['max_p_drop']:.3e} "
                f"theorem_ratio={ens['max_theorem_ratio']:.3g}"
            )
        else:
            print("all ensemble members failed", file=sys.stderr)
            return 3
    elif cfg.kind == "verify-identities":
        worst = 0.0
        for p in (0.3, 0.5, 0.7):
            report = linearized.appendix_identities(p, 50)
            local = max(report.values())
            worst = max(worst, local)
            print(f"p={p}: max relative error {local:.3e}")
        relation = linearized.mode_energy_relation(0.5)
        print(
            f"mode-energy relation at p=0.5: inner rel err {relation['inner_rel_err']:.3e}, "
            f"orthogonality {relation['orthogonality']:.3e}"
        )
        if worst > 1e-12:
            return 3
    return 0


def _print_spectrum_report(report: dict) -> None:
    print(f"truncation N={report['n_modes']}")
    for p, entry in report["ground"].items():
        print(
            f"ground p={p}: L- err {entry['minus_err']:.2e}, L+ err {entry['plus_err']:.2e}, "
            f"Omega err {entry['omega_err']:.2e} ({entry['reduction']} solve), "
            f"kernel {entry['zero_geometric']}+"
            f"{entry['jordan_partners']} (unstable={entry['unstable']})"
        )
    for mode, entry in report["single_mode"].items():
        print(
            f"single mode N={mode}: Omega err {entry['omega_err']:.2e} "
            f"({entry['count_got']}/{entry['count_expected']} frequencies, "
            f"{entry['reduction']} solve, unstable={entry['unstable']})"
        )


if __name__ == "__main__":
    sys.exit(main())
