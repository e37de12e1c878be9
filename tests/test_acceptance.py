"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line as it is
produced; without ``-s`` the lines appear in the captured-output section of
any failing test.
"""

import sys
import time

import numpy as np
import pytest

import conformalflow as cf
from conformalflow import lab
from conformalflow.lab import (
    PerturbationSpec,
    generate_perturbation,
    random_state,
    run_inequality_scan,
)

TRACK_T_END = 100.0


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})", file=sys.stderr, flush=True)


def test_criterion_01_energy_bound(monkeypatch):
    # 10 000 random states and 100 geometric sequences at N = 32, seed 0
    monkeypatch.setattr(lab, "SCAN_RANDOM_STATES", 10_000)
    monkeypatch.setattr(lab, "SCAN_GEOMETRIC_STATES", 100)
    monkeypatch.setattr(lab, "SCAN_MODES", 32)
    start = time.perf_counter()
    scan = run_inequality_scan(seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        scan["min_gap_random"] >= -1e-10
        and scan["max_gap_geometric"] <= 1e-9
        and elapsed <= 60.0
    )
    report(
        1,
        "energy-bound",
        ok,
        f"min gap {scan['min_gap_random']:.3e}, geometric |gap| {scan['max_gap_geometric']:.3e}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(key=1))
    worst_h = worst_f = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 49))
        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h_naive = cf.energy_naive(alpha)
        worst_h = max(worst_h, abs(cf.energy_fast(alpha) - h_naive) / max(abs(h_naive), 1.0))
        f_naive = cf.vector_field_naive(alpha)
        scale = max(float(np.max(np.abs(f_naive))), 1.0)
        worst_f = max(
            worst_f, float(np.max(np.abs(cf.vector_field_fast(alpha) - f_naive))) / scale
        )

    sizes = np.array([32, 64, 128, 256])
    timings = []
    for n in sizes:
        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        reps = max(20, 4000 // n)
        cf.energy_fast(alpha)  # warm caches
        best = min(
            (lambda t0: (cf.energy_fast(alpha), time.perf_counter() - t0)[1])(
                time.perf_counter()
            )
            for _ in range(reps)
        )
        timings.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(timings), 1)[0])

    ok = worst_h <= 1e-12 and worst_f <= 1e-12 and slope <= 2.5
    report(
        2,
        "oracle-equivalence",
        ok,
        f"H rel err {worst_h:.2e}, F rel err {worst_f:.2e}, H timing slope {slope:.2f}",
    )
    assert ok


def test_criterion_03_conservation():
    alpha0 = random_state(2024, 64, q_normalize=1.0)
    cfg = cf.IntegratorConfig(t_end=100.0, sample_dt=1.0, rel_tol=1e-10)
    start = time.perf_counter()
    traj = cf.integrate(alpha0, cfg)
    elapsed = time.perf_counter() - start
    drift = traj.max_relative_drift()
    ok = max(drift.values()) <= 1e-8 and elapsed <= 300.0
    report(
        3,
        "conservation",
        ok,
        f"drift H {drift['H']:.2e}, Q {drift['Q']:.2e}, E {drift['E']:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_04_ground_spectra():
    worst = 0.0
    for p in (0.0, 0.3, 0.6):
        ops = cf.build_ground_ops(p, 128)
        minus = cf.spectrum(ops.Lminus)[:12]
        plus = cf.spectrum(ops.Lplus)[:12]
        lam = 2 * (1 + p * p) / (1 - p * p)
        want_minus = np.array([0.0, 0.0] + [-m for m in range(1, 11)])
        want_plus = np.array([lam, 0.0] + [-m for m in range(1, 11)])
        worst = max(
            worst,
            float(np.max(np.abs(minus - want_minus))),
            float(np.max(np.abs(plus - want_plus))),
        )
    ok = worst <= 1e-6
    report(4, "ground-spectra", ok, f"max eigenvalue error {worst:.2e}")
    assert ok


def test_criterion_05_stability_frequencies():
    want = np.sort([(m - 1) / (m + 1) for m in range(2, 11)])
    grids = []
    kernel_ok = True
    for p in (0.0, 0.3, 0.6):
        rep = cf.stability_spectrum(cf.build_ground_ops(p, 128))
        grids.append(np.sort(rep.omegas)[: want.size])
        kernel_ok = kernel_ok and rep.zero_geometric == 3 and rep.jordan_partners == 1
    err = max(float(np.max(np.abs(g - want))) for g in grids)
    spread = max(float(np.max(np.abs(g - grids[0]))) for g in grids)
    ok = err <= 1e-6 and spread <= 1e-6 and kernel_ok
    report(
        5,
        "stability-frequencies",
        ok,
        f"closed-form err {err:.2e}, p-spread {spread:.2e}, kernel 3+1 {kernel_ok}",
    )
    assert ok


def test_criterion_06_single_mode_spectra():
    n_modes = 64
    worst = 0.0
    counts_ok = True
    for mode in (0, 1, 2):
        ops = cf.build_single_mode_ops(mode, n_modes)
        rep = cf.stability_spectrum(ops)
        block = [2.0 * (mode - n) / (2 * mode + 1 - n) for n in range(mode)]
        tail = [(n - 2 * mode - 1) / (n + 1.0) for n in range(2 * mode + 2, n_modes)]
        want = np.sort(np.array(block + tail))
        got = np.sort(rep.omegas)
        if got.size != want.size:
            counts_ok = False
            continue
        worst = max(worst, float(np.max(np.abs(got - want))))
        for mat, pos_want, zero_want in (
            (ops.Lplus, mode + 1, mode + 1),
            (ops.Lminus, mode, mode + 2),
        ):
            vals = cf.spectrum(mat)
            pos = int(np.sum(vals > 1e-8))
            zero = int(np.sum(np.abs(vals) <= 1e-8))
            counts_ok = counts_ok and (pos, zero) == (pos_want, zero_want)
    ok = worst <= 1e-10 and counts_ok
    report(
        6,
        "single-mode-spectra",
        ok,
        f"frequency err {worst:.2e}, signature counts {counts_ok}",
    )
    assert ok


def test_criterion_07_commutators():
    c1, c2 = cf.commutators(cf.build_ground_ops(0.5, 128))
    ok = c1 <= 1e-8 and c2 <= 1e-8
    report(7, "commutators", ok, f"[L+, L-] {c1:.2e}, weighted {c2:.2e}")
    assert ok


def test_criterion_08_ladder_structure():
    worst_res = worst_angle = 0.0
    for p in (0.1, 0.3, 0.6):
        rep = cf.ladder_check(cf.build_ground_ops(p, 192))
        worst_res = max(worst_res, float(np.max(rep.eigen_residuals)))
        worst_angle = max(worst_angle, rep.v1_shift_angle)
    ok = worst_res <= 1e-9 and worst_angle <= 1e-9
    report(
        8,
        "ladder-structure",
        ok,
        f"eigen residual {worst_res:.2e}, S* v1 angle {worst_angle:.2e}",
    )
    assert ok


def test_criterion_09_appendix_identities():
    worst = 0.0
    for p in (0.3, 0.5, 0.7):
        worst = max(worst, max(cf.appendix_identities(p).values()))
    ok = worst <= 1e-12
    report(9, "appendix-identities", ok, f"max relative error {worst:.2e}")
    assert ok


def test_criterion_10_modulation_decomposition():
    n_modes = 64
    eps = 1e-3
    worst_param = worst_constraint = worst_recon = 0.0
    p_values = np.linspace(0.1, 0.7, 10)
    for i in range(100):
        p0 = float(p_values[i % p_values.size])
        alpha = cf.ground_amplitudes(p0, n_modes) + generate_perturbation(
            PerturbationSpec(delta=eps), 1000 + i, n_modes
        )
        frame = cf.decompose(alpha, p0)
        worst_param = max(
            worst_param,
            abs(frame.c - 1.0),
            abs(frame.p - p0),
            abs((frame.theta_orbit + np.pi) % (2 * np.pi) - np.pi),
            abs((frame.mu + np.pi) % (2 * np.pi) - np.pi),
        )
        worst_constraint = max(
            worst_constraint, float(np.max(np.abs(frame.constraint_residuals())))
        )
        worst_recon = max(
            worst_recon, float(np.max(np.abs(frame.reconstruct() - alpha)))
        )
    ok = worst_param <= 5 * eps and worst_constraint <= 1e-10 and worst_recon <= 1e-12
    report(
        10,
        "modulation-decomposition",
        ok,
        f"param err {worst_param:.2e} (bound {5 * eps:.0e}), constraints "
        f"{worst_constraint:.2e}, reconstruction {worst_recon:.2e}",
    )
    assert ok


P0_SCALING_DELTAS = (1e-3, 1e-4, 1e-5)
#: relative slack allowed on either side of the conservation sandwich
SANDWICH_SLACK = 1e-4


def p0_distance_sandwich(alpha0: np.ndarray) -> tuple[float, float]:
    """Bounds (lo, hi) on dist_h1(t)^2 to the A(0) orbit from conserved Q and E.

    With A(0) = (1, 0, 0, ...) the orbit distance is exactly
    dist_h1^2 = 1 + E - 2|alpha_0|, and |alpha_0|^2 lies in [2Q - E, Q], so

        D + (1 - sqrt Q)^2 <= dist_h1^2 <= 2D + (1 - sqrt(2Q - E))^2,

    D = E - Q.  D and 2Q - E are summed in cancellation-free form from the
    initial state.
    """
    n = np.arange(alpha0.size, dtype=np.float64)
    mod2 = np.abs(alpha0) ** 2
    d = float(np.sum(n * (n + 1.0) * mod2))
    q = float(np.sum((n + 1.0) * mod2))
    two_q_minus_e = float(mod2[0] - np.sum((n[2:] ** 2 - 1.0) * mod2[2:]))
    return d + (1.0 - np.sqrt(q)) ** 2, 2.0 * d + (1.0 - np.sqrt(two_q_minus_e)) ** 2


@pytest.fixture(scope="module")
def p0_scaling_tracks():
    """delta-scaling runs at p0 = 0, keyed by restricted (False: generic; True:
    the same disc draw with mode 0 set to zero, rescaled to h^1 norm delta).

    Each branch maps to (sup dist_h1 per delta, max |E-budget error|,
    min d^2/lo, max d^2/hi), the last two over every sample of every delta,
    with d = dist_h1 and (lo, hi) from ``p0_distance_sandwich``.

    At p0 = 0 the tracked p(t) = |q(t)| can only rise from p0 (it stays
    below 7e-3 delta), so no sqrt(p0 - p(t)) drift term can enter the
    distance, taken at A(p(t)); lo and hi, the bounds on the distance to
    A(0), are both of order delta^2 in either branch, and the sup distance
    scales like delta^1.
    """
    out = {}
    base = cf.ground_amplitudes(0.0, 48).astype(complex)
    cfg = cf.IntegratorConfig(t_end=TRACK_T_END, sample_dt=1.0)
    for restricted in (False, True):
        sups, budgets, ratio_lo, ratio_hi = [], [], [], []
        for delta in P0_SCALING_DELTAS:
            if restricted:
                draw = lab._uniform_disc(lab._rng(77), 48)
                draw[0] = 0.0
                pert = draw * (delta / cf.weighted_norm(draw, 1.0))
            else:
                pert = generate_perturbation(PerturbationSpec(delta=delta), 77, 48)
            alpha0 = base + pert
            track = cf.track_modulation(cf.integrate(alpha0, cfg), 0.0)
            lo, hi = p0_distance_sandwich(alpha0)
            d2 = track.dist_h1**2
            sups.append(float(np.max(track.dist_h1)))
            budgets.append(float(np.max(np.abs(track.energy_budget_error))))
            ratio_lo.append(float(np.min(d2)) / lo)
            ratio_hi.append(float(np.max(d2)) / hi)
        out[restricted] = (np.array(sups), max(budgets), min(ratio_lo), max(ratio_hi))
    return out


@pytest.fixture(scope="module")
def ground_track():
    """p0 = 0.5, delta = 1e-3 modulation track to t = 100."""
    n_modes = 64
    delta = 1e-3
    alpha0 = cf.ground_amplitudes(0.5, n_modes) + generate_perturbation(
        PerturbationSpec(delta=delta), 424242, n_modes
    )
    cfg = cf.IntegratorConfig(t_end=TRACK_T_END, sample_dt=1.0)
    return cf.track_modulation(cf.integrate(alpha0, cfg), 0.5), delta


def test_criterion_11a_delta_scaling(p0_scaling_tracks):
    """Orbit distance to A(0) scales like delta^1 in both branches.

    E - Q = sum n(n+1)|alpha_n|^2 is conserved and of order delta^2 for any
    delta-perturbation of A(0); with the exact identity
    dist_h1^2 = 1 + E - 2|alpha_0| and |alpha_0|^2 in [2Q - E, Q] it pins
    dist_h1 between two order-delta bounds for all time, so the generic
    branch, like the restricted (mode-0-free) one, has log-log slope 1.  The
    delta^(1/2) loss of orbital stability comes from a downward drift
    sqrt(p0 - p(t)), which cannot occur at p0 = 0; criterion 11b tracks it at
    p0 = 0.5.  The sandwich is checked at every sample of all six tracks.
    """
    log_deltas = np.log(np.array(P0_SCALING_DELTAS))
    slopes, worst_lo, worst_hi = {}, np.inf, 0.0
    for restricted, (sups, _, ratio_lo, ratio_hi) in p0_scaling_tracks.items():
        slopes[restricted] = float(np.polyfit(log_deltas, np.log(sups), 1)[0])
        worst_lo = min(worst_lo, ratio_lo)
        worst_hi = max(worst_hi, ratio_hi)
    ok_slopes = all(abs(slope - 1.0) <= 0.15 for slope in slopes.values())
    ok_sandwich = worst_lo >= 1.0 - SANDWICH_SLACK and worst_hi <= 1.0 + SANDWICH_SLACK
    ok = ok_slopes and ok_sandwich
    report(
        11,
        "delta-scaling (a)",
        ok,
        f"generic slope {slopes[False]:.3f}, restricted slope {slopes[True]:.3f} "
        f"(want 1.0 +- 0.15); min d^2/lo {worst_lo:.4f}, max d^2/hi {worst_hi:.4f} "
        f"(want >= 1 - {SANDWICH_SLACK:.0e}, <= 1 + {SANDWICH_SLACK:.0e})",
    )
    assert ok


def test_criterion_11b_tracked_constants(ground_track):
    track, delta = ground_track
    c_half = float(np.max(track.dist_h12)) / delta
    drop = np.clip(0.5 - track.p, 0.0, None)
    c_one = float(np.max(track.dist_h1 / (delta + np.sqrt(drop))))
    min_p = float(np.min(track.p))
    ok = np.isfinite(c_half) and np.isfinite(c_one) and c_half < 1e3 and c_one < 1e3
    report(
        11,
        "tracked-constants (b)",
        ok,
        f"C_h12 {c_half:.3g}, C_h1 {c_one:.3g}, min p(t) {min_p:.6f} "
        f"(downward drift reported, not asserted)",
    )
    assert ok


def test_criterion_11c_energy_budget(ground_track, p0_scaling_tracks):
    track, _ = ground_track
    worst = float(np.max(np.abs(track.energy_budget_error)))
    for restricted in (False, True):
        worst = max(worst, p0_scaling_tracks[restricted][1])
    ok = worst <= 1e-8
    report(11, "energy-budget (c)", ok, f"max E-budget error {worst:.2e}")
    assert ok


def test_criterion_12_hessian_consistency():
    worst_ratio = np.inf
    for p in (0.0, 0.5):
        n_modes = 200
        ops = cf.build_ground_ops(p, n_modes)
        ground = cf.ground_amplitudes(p, n_modes)
        rng = np.random.Generator(np.random.Philox(key=12))
        a = rng.standard_normal(n_modes) * 0.85 ** np.arange(n_modes)
        b = rng.standard_normal(n_modes) * 0.85 ** np.arange(n_modes)
        k0 = cf.functional_K(ground.astype(complex), 1.0)
        quad = a @ ops.Lplus @ a + b @ ops.Lminus @ b
        res = []
        for eps in (1e-2, 5e-3):
            dk = cf.functional_K(ground + eps * a + 1j * eps * b, 1.0) - k0
            res.append(abs(dk - eps * eps * quad))
        worst_ratio = min(worst_ratio, res[0] / res[1])
    ok = worst_ratio >= 7.0
    report(12, "hessian-consistency", ok, f"halving reduces residual by {worst_ratio:.1f}x")
    assert ok
