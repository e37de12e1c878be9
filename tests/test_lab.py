"""Experiment drivers, seeded randomness, persistence, CLI."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from conformalflow.flow import ORACLE_CHECK_STRIDE, IntegratorConfig, integrate
from conformalflow.lab import (
    MAX_DELTA,
    MAX_MODES,
    ExperimentConfig,
    PerturbationSpec,
    generate_perturbation,
    main,
    random_state,
    run_drift_study,
    run_inequality_scan,
    write_track_csv,
    write_trajectory_csv,
)
from conformalflow.modulation import track_modulation
from conformalflow.state import ground_amplitudes, weighted_norm


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
    zeroed = generate_perturbation(PerturbationSpec(delta=1e-3, zero_mode0=True), 7, 32)
    assert zeroed[0] == 0
    assert weighted_norm(zeroed, 1.0) == pytest.approx(1e-3, rel=1e-12)


def test_perturbation_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(delta=-1.0)
    with pytest.raises(ValueError):
        PerturbationSpec(delta=np.nan)
    with pytest.raises(ValueError, match="delta must lie in"):
        PerturbationSpec(delta=np.nextafter(MAX_DELTA, np.inf))
    assert PerturbationSpec(delta=MAX_DELTA).delta == MAX_DELTA
    with pytest.raises(ValueError, match="support is empty"):
        generate_perturbation(PerturbationSpec(delta=1e-3, zero_mode0=True), 0, 1)


def test_random_state_q_normalization():
    alpha = random_state(5, 24, q_normalize=1.0)
    n = np.arange(24)
    assert np.sum((n + 1) * np.abs(alpha) ** 2) == pytest.approx(1.0, rel=1e-12)


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


def test_inequality_scan_bounds():
    report = run_inequality_scan(n_random=500, n_geometric=20, seed=3)
    assert report["min_gap_random"] >= -1e-10
    assert report["max_gap_geometric"] <= 1e-9


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
        # N = 32 runs the inline oracle; NaN stands for "no check ran"
        assert run["oracle_checks"] == run["accepted"] // ORACLE_CHECK_STRIDE
        assert run["oracle_checks"] > 0 or np.isnan(run["oracle_max_rel_err"])


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
    assert trows[0][-1] == "energy_budget_error"
    assert len(trows) == 1 + track.times.size
    assert float(trows[1][2]) == pytest.approx(0.4, abs=1e-10)
    budget = [float(row[-1]) for row in trows[1:]]
    assert budget == track.energy_budget_error.tolist()  # 17 digits round-trip


def test_cli_verify_identities_exit_zero(capsys):
    assert main(["verify-identities"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


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
        # scipy would run at its floor 2.2e-14 and the metadata would say 1e-20
        ["simulate", "--rel-tol", "1e-20"],
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


def test_cli_simulate_takes_the_largest_seed(capsys):
    # the default ensemble of 32 bounds only drift-study's keys seed + m
    assert main(["simulate", "--n", "8", "--t-end", "0.5", "--seed", str(2**128 - 1)]) == 0
    assert "t_end=0.5" in capsys.readouterr().out


def test_cli_numerical_failure_exit_three(capsys):
    # a large perturbation of A(0.021) lets p drift to 0.017, where the
    # mu-direction of the root map degenerates (DegenerateJacobian)
    assert main(["decompose", "--n", "32", "--p0", "0.021", "--delta", "0.3", "--seed", "1"]) == 3
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
    assert {p: e["reduction"] for p, e in report["ground"].items()} == dict.fromkeys(
        ("0.0", "0.3", "0.6"), "definite"
    )
    assert {m: e["reduction"] for m, e in report["single_mode"].items()} == {
        "0": "definite",
        "1": "general",
        "2": "general",
    }


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
    assert f"rhs_evals={telemetry['rhs_evals']} " in summary
    assert f"h_max={telemetry['h_max']:.3e} " in summary
    assert telemetry["oracle_checks"] == telemetry["accepted"] // ORACLE_CHECK_STRIDE
    assert f"oracle_checks={telemetry['oracle_checks']} " in summary
    assert f"oracle_max_rel_err={telemetry['oracle_max_rel_err']:.3e} " in summary


def test_cli_decompose(capsys):
    assert main(["decompose", "--n", "32", "--p0", "0.5", "--delta", "1e-4", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    fields = dict(item.split("=") for item in out.split())
    assert float(fields["p"]) == pytest.approx(0.5, abs=1e-3)
    assert float(fields["constraint_residual"]) <= 1e-10
    # the p = 0 form imposes a_0 = b_0 = 0 exactly and reports only those two
    assert main(["decompose", "--n", "32", "--p0", "0", "--delta", "1e-2"]) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    assert float(fields["p"]) == 0.0
    assert float(fields["constraint_residual"]) == 0.0


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n = 24\np0 = 0.3\ndelta = 1e-4\nt-end = 1\n# comment\n")
    code = main(["simulate", "--config", str(config), "--p0", "0.35"])
    assert code == 0
    code = main(["simulate", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    bad = tmp_path / "bad.cfg"
    capsys.readouterr()
    for text in ("unknown_key = 3\n", "n = abc\n"):
        bad.write_text(text)
        assert main(["simulate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and err.count("\n") == 1, text


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "conformalflow.lab", "verify-identities"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_cli_config_file_matches_flags(tmp_path):
    # all eight settings from a file, spelt with "-" and "_", give the
    # configuration the same flags give
    out = tmp_path / "run"
    config = tmp_path / "run.cfg"
    config.write_text(
        "n = 24\np0 = 0.3\ndelta = 1e-4\nseed = 5\nt-end = 1\nrel_tol = 1e-9\n"
        f"ensemble = 3\nout = {out}\n"
    )
    assert main(["simulate", "--config", str(config)]) == 0
    from_file = json.loads((out / "metadata.json").read_text())["config"]
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
    assert main(["simulate", *flags]) == 0
    from_flags = json.loads((out / "metadata.json").read_text())["config"]
    assert from_file == from_flags
    assert from_flags["integrator"] == {"rel_tol": 1e-9, "t_end": 1.0, "sample_dt": 0.5}
    assert (from_flags["n_modes"], from_flags["seed"], from_flags["ensemble"]) == (24, 5, 3)
    assert from_flags["out_dir"] == str(out)


def test_cli_unwritable_out_exit_two(tmp_path, capsys):
    # --out is created before the run starts; a file in its way is bad input
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["inequality", "--out", str(blocker / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and err.count("\n") == 1


def test_cli_empty_out_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("n = 16\nt-end = 0.5\nout =\n")
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["simulate", "--n", "16", "--t-end", "0.5", "--out", ""]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]
