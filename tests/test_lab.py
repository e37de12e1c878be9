"""Experiment drivers, seeded randomness, persistence, CLI."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conformalflow import lab, linearized
from conformalflow.flow import FlowError, IntegratorConfig, TrajectoryRecord, integrate
from conformalflow.lab import (
    MAX_DELTA,
    MAX_MODES,
    ExperimentConfig,
    PerturbationSpec,
    _spectrum_failures,
    generate_perturbation,
    main,
    random_state,
    run_drift_study,
    run_inequality_scan,
    run_spectrum_suite,
    write_track_csv,
    write_trajectory_csv,
)
from conformalflow.modulation import decompose, track_modulation
from conformalflow.observables import gap
from conformalflow.state import ground_amplitudes, weighted_norm

ROOT = Path(__file__).resolve().parent.parent


def test_perturbation_is_deterministic():
    spec = PerturbationSpec(delta=1e-3)
    first = generate_perturbation(spec, 42, 32)
    second = generate_perturbation(spec, 42, 32)
    np.testing.assert_array_equal(first, second)
    other = generate_perturbation(spec, 43, 32)
    assert np.max(np.abs(first - other)) > 0


def test_perturbation_norm_and_support():
    pert = generate_perturbation(PerturbationSpec(delta=2.5e-4), 7, 32)
    assert weighted_norm(pert, 1.0) == pytest.approx(2.5e-4, rel=1e-12)
    assert np.all(pert != 0)


def test_perturbation_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(delta=-1.0)
    with pytest.raises(ValueError):
        PerturbationSpec(delta=np.nan)
    with pytest.raises(ValueError, match="delta must lie in"):
        PerturbationSpec(delta=np.nextafter(MAX_DELTA, np.inf))
    assert PerturbationSpec(delta=MAX_DELTA).delta == MAX_DELTA
    with pytest.raises(ValueError, match="support is empty"):
        generate_perturbation(PerturbationSpec(delta=1e-3), 0, 0)


def test_random_state_q_normalization():
    alpha = random_state(5, 24, q_normalize=1.0)
    n = np.arange(24)
    assert np.sum((n + 1) * np.abs(alpha) ** 2) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(("q", "shown"), [(-1.0, "-1.0"), (np.nan, "nan"), (np.inf, "inf")])
def test_random_state_rejects_invalid_charge(q, shown):
    # a negative charge once gave an all-NaN state after a RuntimeWarning
    with pytest.raises(ValueError, match=f"got {shown}$"):
        random_state(1, 4, q_normalize=q)


def test_random_state_zero_charge():
    alpha = random_state(1, 4, q_normalize=0.0)
    assert np.all(np.isfinite(alpha))
    assert np.sum(np.arange(1, 5) * np.abs(alpha) ** 2) == 0.0


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_modes=4)
    with pytest.raises(ValueError):
        ExperimentConfig(n_modes=MAX_MODES + 1)
    ExperimentConfig(n_modes=MAX_MODES)  # the largest truncation a run takes
    with pytest.raises(ValueError):
        ExperimentConfig(p0=1.0)
    for bad in (
        {"delta": np.inf},
        {"ensemble": 0},
        {"seed": -1},
        # drift-study member 1 would need key 2**128
        {"kind": "drift-study", "seed": 2**128 - 1, "ensemble": 2},
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    ExperimentConfig(seed=2**128 - 2, ensemble=2)  # the largest keys Philox takes
    # only drift-study draws from seed + m; a single run takes any 128-bit key
    ExperimentConfig(seed=2**128 - 1, ensemble=2)


def _small_scan(monkeypatch):
    """The scan shrunk to 500 random and 20 geometric states at N = 32."""
    monkeypatch.setattr(lab, "SCAN_RANDOM_STATES", 500)
    monkeypatch.setattr(lab, "SCAN_GEOMETRIC_STATES", 20)
    monkeypatch.setattr(lab, "SCAN_MODES", 32)


def test_inequality_scan_bounds(monkeypatch):
    _small_scan(monkeypatch)
    report = run_inequality_scan(seed=3)
    assert report["min_gap_random"] >= -1e-10
    assert report["max_gap_geometric"] <= 1e-9


def test_inequality_scan_equals_a_per_state_loop(monkeypatch):
    # the stacked scan draws the same stream state by state, and a stacked
    # gap is bitwise the gap of each state alone; chunks of 64 leave a
    # partial last chunk
    rng = np.random.Generator(np.random.Philox(key=3))
    random_gaps = []
    for _ in range(500):
        radius, phase = np.sqrt(rng.random(32)), 2.0 * np.pi * rng.random(32)
        random_gaps.append(gap(radius * np.exp(1j * phase)))
    geometric_gaps = []
    for _ in range(20):
        p = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        c = np.sqrt(rng.random(1)) * np.exp(2j * np.pi * rng.random(1))
        geometric_gaps.append(gap(c[0] * p ** np.arange(160)))

    calls = []
    monkeypatch.setattr(lab, "gap", lambda states: calls.append(gap(states)) or calls[-1])
    monkeypatch.setattr(lab, "SCAN_CHUNK", 64)
    _small_scan(monkeypatch)
    report = run_inequality_scan(seed=3)
    assert [len(values) for values in calls] == [64] * 7 + [52, 20]
    np.testing.assert_array_equal(np.concatenate(calls[:-1]), random_gaps)
    np.testing.assert_array_equal(calls[-1], geometric_gaps)
    assert report == {
        "min_gap_random": min(random_gaps),
        "max_gap_geometric": max(abs(g) for g in geometric_gaps),
    }


def test_drift_study_small_ensemble(tmp_path):
    cfg = ExperimentConfig(
        kind="drift-study",
        n_modes=32,
        p0=0.4,
        delta=1e-3,
        seed=11,
        ensemble=2,
        integrator=IntegratorConfig(t_end=1.0, sample_dt=0.5),
        out_dir=tmp_path,
    )
    result = run_drift_study(cfg)
    assert result["n_failed"] == 0
    assert result["ensemble"]["sup_dist_h1"] <= 1e-2
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "track_11.csv").exists()
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["config"]["seed"] == 11
    for run in payload["runs"]:
        assert run["accepted"] > 0 and run["rhs_evals"] > 12 * run["accepted"]
        assert 0 < run["h_min"] <= run["h_max"] <= 1.0
        # at least one Newton iteration per sample frame, three samples
        assert run["newton_iters"] >= 3
    seed11 = np.loadtxt(tmp_path / "track_11.csv", delimiter=",", skiprows=1)
    assert payload["runs"][0]["newton_iters"] == seed11[:, -2].sum()


def test_trajectory_and_track_csv(tmp_path):
    alpha0 = ground_amplitudes(0.4, 24).astype(complex)
    traj = integrate(alpha0, IntegratorConfig(t_end=1.0, sample_dt=0.5))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, mode_subset=(0, 1))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "H", "Q", "E", "re0", "im0", "re1", "im1"]
    assert len(rows) == 1 + traj.times.size
    assert float(rows[1][2]) == pytest.approx(traj.Q[0])  # 17 digits round-trip

    track = track_modulation(traj, 0.4)
    tpath = tmp_path / "track.csv"
    write_track_csv(tpath, track)
    with open(tpath, newline="") as handle:
        trows = list(csv.reader(handle))
    # ModulationTrack's field order, with times and constraint_residual renamed
    assert trows[0] == [
        "t",
        "c",
        "p",
        "theta",
        "mu",
        "dist_h12",
        "dist_h1",
        "residual",
        "newton_iters",
        "energy_budget_error",
    ]
    assert len(trows) == 1 + track.times.size
    assert float(trows[1][2]) == pytest.approx(0.4, abs=1e-10)
    budget = [float(row[-1]) for row in trows[1:]]
    assert budget == track.energy_budget_error.tolist()  # 17 digits round-trip
    # one count of Newton iterations per frame, written as an integer
    assert trows[0][-2] == "newton_iters"
    # the continuation track_modulation runs: the previous frame turned by -lambda dt
    lam = traj.H[0] / traj.Q[0]
    frames = [decompose(traj.states[0], 0.4)]
    for state, dt in zip(traj.states[1:], np.diff(traj.times)):
        seed = replace(frames[-1], theta=frames[-1].theta - lam * dt)
        frames.append(decompose(state, 0.4, seed_frame=seed))
    want = [str(len(frame.residual_history)) for frame in frames]
    assert [row[-2] for row in trows[1:]] == want


def test_cli_spectrum_exits_three_on_identity_nan(monkeypatch, capsys):
    # a NaN in the last key: Python's max(0.0, nan) is 0.0 and would pass it
    identities = lab.linearized.appendix_identities

    def last_key_nan(p, n_max):
        return {**identities(p, n_max), "folded_weighted": float("nan")}

    monkeypatch.setattr(lab.linearized, "appendix_identities", last_key_nan)
    assert main(["spectrum", "--n", "128"]) == 3
    err = capsys.readouterr().err
    assert err == "spectrum outside its bounds: identities 0.3 appendix, identities 0.6 appendix\n"


def test_cli_spectrum_judges_mode_energy_relation(monkeypatch, capsys):
    # the relation is judged by |orthogonality| and both relative errors, at
    # every p > 0 of the grid
    relation = lab.linearized.mode_energy_relation

    def broken(p):
        return {**relation(p), "inner_rel_err": float("nan"), "orthogonality": 1.0}

    monkeypatch.setattr(lab.linearized, "mode_energy_relation", broken)
    assert main(["spectrum", "--n", "128"]) == 3
    err = capsys.readouterr().err
    assert err == "spectrum outside its bounds: identities 0.3 mode_energy, identities 0.6 mode_energy\n"


@pytest.mark.parametrize(
    "gaps",
    [
        {"min_gap_random": -1.0, "max_gap_geometric": 0.0},
        {"min_gap_random": float("nan"), "max_gap_geometric": 0.0},
        {"min_gap_random": 0.0, "max_gap_geometric": float("nan")},
    ],
)
def test_cli_inequality_exits_three_past_its_bound(gaps, tmp_path, monkeypatch, capsys):
    # the report is written before the verdict, and one stderr line gives it;
    # "not <=" also catches a NaN gap
    monkeypatch.setattr(lab, "run_inequality_scan", lambda seed: dict(gaps))
    assert main(["inequality", "--out", str(tmp_path)]) == 3
    written = json.loads((tmp_path / "inequality.json").read_text())
    assert list(written) == list(gaps)
    assert capsys.readouterr().err.count("\n") == 1


def test_cli_validation_exit_two(capsys):
    for argv in (
        ["simulate", "--p0", "1.5"],
        ["simulate", "--n", "4"],
        ["simulate", "--rel-tol", "nan"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--delta", "nan"],
        # the step falls like 1/delta^2, so this run would take about 1.5e5 steps
        ["simulate", "--delta", "1000"],
        ["simulate", "--t-end", "inf"],
        ["simulate", "--t-end", "1e9"],
        # below DOP853's floor of 100 eps (2.2e-14) the error estimate is rounding
        ["simulate", "--rel-tol", "1e-20"],
        # at rel_tol >= 1 the error control would reject no step
        ["simulate", "--n", "8", "--rel-tol", "1e300"],
        ["drift-study", "--ensemble", "0"],
        ["drift-study", "--delta", "0"],
        ["drift-study", "--seed", str(2**128 - 1), "--ensemble", "2"],
        # N x N operators and the N x N complex kernel table would need 75 and 149 GiB
        ["spectrum", "--n", "100000"],
        ["simulate", "--n", "100000"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "invalid configuration" in err, argv
        assert err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "argv, written",
    [
        (["simulate", "--n", "8", "--t-end", "0.5"], "trajectory.csv"),
        (["spectrum"], "spectrum.json"),
        (["inequality"], "inequality.json"),
        (["drift-study", "--n", "8", "--ensemble", "1", "--t-end", "0.5"], "summary.json"),
    ],
)
def test_cli_unwritable_output_exit_two(argv, written, tmp_path, monkeypatch, capsys):
    # a directory where the output file goes: one stderr line, no traceback
    _small_scan(monkeypatch)
    (tmp_path / written).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and written in err, argv
    assert err.count("\n") == 1, argv


def test_cli_simulate_takes_the_largest_seed(capsys):
    # the default ensemble of 32 bounds only drift-study's keys seed + m
    assert main(["simulate", "--n", "8", "--t-end", "0.5", "--seed", str(2**128 - 1)]) == 0
    assert "t_end=0.5" in capsys.readouterr().out


def test_cli_numerical_failure_exit_three(capsys):
    # a perturbation as large as A(0) itself on the truncated A(0.999): Newton
    # leaves the parameter domain
    assert main(["decompose", "--n", "8", "--p0", "0.999", "--delta", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_spectrum_reports_reduction(tmp_path, capsys):
    # each stability line and spectrum.json entry names the solve that ran, and
    # both say once that the suite raised N to its floor of 128
    assert main(["spectrum", "--n", "16", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out.count("truncation N=128") == 1
    lines = [line for line in out if "Omega err" in line]
    assert len(lines) == 6
    assert all(" solve" in line for line in lines)
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert report["n_modes"] == 128
    # the diagonal p = 0 pair takes the general route, like the single modes
    assert {p: e["reduction"] for p, e in report["ground"].items()} == {
        "0.0": "general",
        "0.3": "supersymmetric",
        "0.6": "supersymmetric",
    }
    assert {m: e["reduction"] for m, e in report["single_mode"].items()} == dict.fromkeys(
        ("0", "1", "2"), "general"
    )


def test_cli_spectrum_reports_coupled_block(tmp_path, capsys):
    # the order of the matrix whose eigenvalues were computed, on each
    # stability line and entry: at N = 128 no leading block of B certifies, so
    # it is solved whole, and the general route solves the coupled blocks of
    # the diagonal p = 0 pair and the single modes; every entry counts its
    # frequencies against the closed form
    assert main(["spectrum", "--n", "16", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert {p: e["solved"] for p, e in report["ground"].items()} == {"0.0": 0, "0.3": 128, "0.6": 128}
    assert {m: e["solved"] for m, e in report["single_mode"].items()} == {"0": 0, "1": 3, "2": 5}
    assert all("coupled" not in e for group in ("ground", "single_mode") for e in report[group].values())
    counts = {p: (e["count_got"], e["count_expected"]) for p, e in report["ground"].items()}
    assert counts == dict.fromkeys(("0.0", "0.3", "0.6"), (9, 9))
    counts = {m: (e["count_got"], e["count_expected"]) for m, e in report["single_mode"].items()}
    assert counts == {"0": (126, 126), "1": (125, 125), "2": (124, 124)}
    out = capsys.readouterr().out
    assert "coupled" not in out
    assert out.count("(supersymmetric solve, solved 128)") == 2
    assert "(general solve, solved 0)" in out
    assert "general solve, solved 0," in out
    assert "general solve, solved 5," in out


def test_spectrum_suite_at_benchmark_size():
    # the suite at the benchmark's N = 512 meets every closed form, and its
    # frequencies at p > 0 come from a certified leading block of
    # B = M^-1/2 T M^-1/2; the diagonal p = 0 pair has no coupled block
    report = run_spectrum_suite(512)
    assert _spectrum_failures(report) == []
    assert {p: e["solved"] for p, e in report["ground"].items()} == {0.0: 0, 0.3: 64, 0.6: 128}
    # ground and single-mode entries are judged alike on their frequency counts
    report["ground"][0.3]["count_got"] = 8
    report["single_mode"][1]["count_got"] = 10
    assert _spectrum_failures(report) == ["ground 0.3 count", "single_mode 1 count"]


def test_frequency_error():
    # every closed-form frequency list is compared by one helper: the max
    # abs error, inf when the sizes differ
    got = np.array([0.25, 0.5])
    assert lab._frequency_error(got, np.array([0.25, 0.5 + 1e-9])) == pytest.approx(1e-9)
    assert lab._frequency_error(got, np.array([0.25])) == np.inf
    assert lab._frequency_error(got[:0], got[:0]) == 0.0


def test_cli_spectrum_exits_three_past_its_bounds(tmp_path, monkeypatch, capsys):
    # single-mode frequencies 1e-6 off the closed form: the report is still
    # written, and one stderr line names what failed
    closed_form = lab._single_mode_omegas
    monkeypatch.setattr(lab, "_single_mode_omegas", lambda mode, n: closed_form(mode, n) + 1e-6)
    assert main(["spectrum", "--out", str(tmp_path)]) == 3
    assert (tmp_path / "spectrum.json").is_file()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert all(f"single_mode {mode} omega_err" in err[0] for mode in (0, 1, 2))


@pytest.mark.parametrize("field", lab._LADDER_FIELDS)
def test_cli_spectrum_judges_the_ladder_numbers(field, tmp_path, monkeypatch, capsys):
    # each of ladder_check's numbers is written to every p > 0 ground entry,
    # and one corrupted value exits 3 and is named
    ladder_check = linearized.ladder_check

    def corrupted(ops):
        report = ladder_check(ops)
        setattr(report, field, 1e-6 if ops.p == 0.3 else getattr(report, field))
        return report

    monkeypatch.setattr(linearized, "ladder_check", corrupted)
    assert main(["spectrum", "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert {p: field in e for p, e in report["ground"].items()} == {"0.0": False, "0.3": True, "0.6": True}
    assert report["ground"]["0.6"][field] <= lab.LADDER_TOL
    assert capsys.readouterr().err.strip().endswith(f"ground 0.3 {field}")


@pytest.mark.parametrize(
    ("changes", "name"),
    [({"unstable": True}, "unstable"), ({"zero_geometric": 2}, "kernel"), ({"jordan_partners": 0}, "kernel")],
)
def test_cli_spectrum_judges_stability_and_kernel(changes, name, tmp_path, monkeypatch, capsys):
    # an unstable ground report, or one with a wrong kernel structure, exits 3
    # and is named
    stability_spectrum = linearized.stability_spectrum

    def corrupted(ops, count=None):
        report = stability_spectrum(ops, count)
        return replace(report, **changes) if ops.p == 0.3 else report

    monkeypatch.setattr(linearized, "stability_spectrum", corrupted)
    assert main(["spectrum", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.strip().endswith(f"ground 0.3 {name}")


@pytest.mark.parametrize(("m", "index"), [(1, 0), (2, 0), (2, 1)])
def test_cli_spectrum_judges_the_mu_coefficients(m, index, tmp_path, monkeypatch, capsys):
    # the m = 1 and m = 2 coefficients of the mu-ladder are judged against
    # their signed closed forms: a flipped sign at p = 0.3 exits 3 and is named
    mu_ladder = linearized.mu_ladder

    def corrupted(ops, m_max):
        report = mu_ladder(ops, m_max)
        if ops.p == 0.3:
            report.coefficients[m][index] *= -1.0
        return report

    assert lab._mu_coefficient_error(0.3, mu_ladder(linearized.build_ground_ops(0.3, 128), 2).coefficients) <= 1e-14
    monkeypatch.setattr(linearized, "mu_ladder", corrupted)
    assert main(["spectrum", "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert report["ground"]["0.3"]["mu_coefficient_err"] == pytest.approx(2.0)
    assert report["ground"]["0.6"]["mu_coefficient_err"] <= 1e-14
    assert "mu_coefficient_err" not in report["ground"]["0.0"]
    assert capsys.readouterr().err.strip().endswith("ground 0.3 mu_coefficient_err")


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    code = main(
        ["simulate", "--n", "24", "--p0", "0.3", "--delta", "1e-4", "--t-end", "1", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["config"]["n_modes"] == 24
    assert meta["drift"]["Q"] <= 1e-8
    telemetry = meta["telemetry"]
    assert telemetry["rhs_evals"] > 12 * telemetry["accepted"] > 0
    assert 0 < telemetry["h_min"] <= telemetry["h_max"]
    summary = capsys.readouterr().out
    # the run's counters in TrajectoryRecord's field order, then the drifts
    assert re.findall(r"(\w+)=", summary) == ["t_end", *telemetry, "H", "Q", "E"]
    assert f"rhs_evals={telemetry['rhs_evals']} " in summary
    assert f"h_max={telemetry['h_max']:.3e} " in summary


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "16", "--t-end", "1"],
        ["drift-study", "--n", "8", "--ensemble", "1", "--t-end", "0.5"],
        ["drift-study", "--n", "8", "--p0", "0", "--ensemble", "1", "--t-end", "0.5"],
        ["spectrum", "--n", "16"],
        ["inequality"],
    ],
    ids=" ".join,
)
def test_cli_json_is_strict(argv, tmp_path):
    # a successful run writes RFC 8259 JSON: no bare NaN or Infinity token
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = list(tmp_path.glob("*.json"))
    assert len(written) == 1
    json.loads(written[0].read_text(), parse_constant=_refuse_constant)


def test_cli_decompose(capsys):
    assert main(["decompose", "--n", "32", "--p0", "0.5", "--delta", "1e-4", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    fields = dict(item.split("=") for item in out.split())
    assert float(fields["p"]) == pytest.approx(0.5, abs=1e-3)
    assert float(fields["constraint_residual"]) <= 1e-10
    # one chart through q = 0: a p near 0 is found within delta, not set to 0,
    # and a large perturbation near p = 0 still decomposes
    for p0, delta in (("0", "1e-2"), ("0.019", "1e-3"), ("0.021", "0.3")):
        argv = ["--p0", p0, "--delta", delta, "--seed", "1"]
        assert main(["decompose", "--n", "32", *argv]) == 0, argv
        fields = dict(item.split("=") for item in capsys.readouterr().out.split())
        assert abs(float(fields["p"]) - float(p0)) <= float(delta), argv
        assert float(fields["constraint_residual"]) <= 1e-10, argv


def test_cli_drift_study_small_p0(capsys):
    # p0 = 0.01 is tracked as p(t) near 0.01, so the distances are to A(p(t))
    # and of order delta
    delta = 1e-3
    argv = ["--n", "32", "--p0", "0.01", "--delta", str(delta), "--ensemble", "2", "--t-end", "5"]
    assert main(["drift-study", *argv]) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    assert float(fields["sup_dist_h1"]) <= 2 * delta
    assert abs(float(fields["max_p_drop"])) <= 5 * delta


def test_cli_entry_point_installed():
    # the module runs as a program, from an uninstalled checkout too, and
    # every command's --help exits 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args in (["decompose", "--n", "16"], *([command, "--help"] for command in lab._COMMANDS)):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "conformalflow.lab", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, args


@pytest.mark.parametrize("flag", lab._SETTINGS)
@pytest.mark.parametrize("command", [*lab._COMMANDS, "verify-identities"])
def test_cli_accepts_only_the_settings_a_command_reads(command, flag):
    # a flag the command does not read exits 2, as a bad value does; the
    # deleted verify-identities command reads none of them
    name, kind = lab._SETTINGS[flag]
    if flag in lab._COMMANDS.get(command, ()):
        given = vars(lab._build_parser().parse_args([command, f"--{flag}", "1"]))
        assert given[name] == kind("1")
        return
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{flag}", "1"])
    assert exc.value.code == 2


def test_cli_refuses_the_deleted_command_and_config(tmp_path, capsys):
    # settings are flags only and the identities are judged by spectrum: the
    # verify-identities command and --config FILE on every command end in
    # argparse's usage message with exit 2
    config = tmp_path / "run.cfg"
    config.write_text("n = 16\n")
    argvs = [["verify-identities"]]
    argvs += [[command, "--config", str(config)] for command in lab._COMMANDS]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.startswith("usage: conformalflow"), argv


def test_readme_cli_examples_parse():
    # every command line of the README's CLI example block parses, so the
    # docs name no deleted command or flag
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    lines = [line.split() for line in block.splitlines()]
    assert len(lines) == len(lab._COMMANDS)
    parser = lab._build_parser()
    for program, *argv in lines:
        assert program == "conformalflow"
        parser.parse_args(argv)


def test_readme_command_table_matches_the_cli():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| command | reads |\n| --- | --- |\n")[1].split("\n\n")[0]
    listed = {}
    for row in table.splitlines():
        command, reads = row.strip("| ").split(" | ")
        flags = lab._SETTINGS if reads == "all eight" else re.findall(r"`--([a-z0-9-]+)`", reads)
        listed[command.strip("`")] = set(flags)
    assert listed == {command: set(reads) for command, reads in lab._COMMANDS.items()}


def test_cli_drift_study_exits_three_when_every_member_fails(tmp_path, monkeypatch, capsys):
    # the summary is still written, and one stderr line gives the verdict
    def fail(alpha0, cfg):
        raise FlowError("forced failure")

    monkeypatch.setattr(lab, "integrate", fail)
    argv = ["drift-study", "--n", "8", "--ensemble", "3", "--t-end", "1", "--out", str(tmp_path)]
    assert main(argv) == 3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_failed"] == 3
    assert "ensemble" not in summary
    # a failed record: the summary's fields, then the counters of a run that took no step
    record = summary["runs"][0]
    no_steps = TrajectoryRecord(*[np.empty(0)] * 5).telemetry()
    assert list(record)[: -len(no_steps)] == [f.name for f in fields(lab.DriftRunSummary)]
    counters = {name: record[name] for name in list(record)[-len(no_steps) :]}
    assert json.dumps(counters) == json.dumps(no_steps)
    assert capsys.readouterr().err == "drift-study outside its bounds: n_failed\n"


def test_cli_flags_set_the_configuration(tmp_path):
    # all eight settings, given as flags, reach summary.json's configuration
    out = tmp_path / "run"
    flags = [
        "--n", "24",
        "--p0", "0.3",
        "--delta", "1e-4",
        "--seed", "5",
        "--t-end", "1",
        "--rel-tol", "1e-9",
        "--ensemble", "3",
        "--out", str(out),
    ]  # fmt: skip
    assert main(["drift-study", *flags]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["integrator"] == {"rel_tol": 1e-9, "t_end": 1.0, "sample_dt": 0.5}
    assert (config["n_modes"], config["p0"], config["delta"]) == (24, 0.3, 1e-4)
    assert (config["seed"], config["ensemble"], config["out_dir"]) == (5, 3, str(out))


def test_cli_unwritable_out_exit_two(tmp_path, capsys):
    # --out is created before the run starts; a file in its way is bad input
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["inequality", "--out", str(blocker / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and err.count("\n") == 1


def test_cli_empty_out_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "16", "--t-end", "0.5", "--out", ""]) == 0
    assert list(tmp_path.iterdir()) == []
