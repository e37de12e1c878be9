"""Modulation decomposition, orbit distance, trajectory tracking."""

from dataclasses import replace

import numpy as np
import pytest

from conformalflow import modulation
from conformalflow.flow import IntegratorConfig, integrate
from conformalflow.modulation import (
    NoConvergence,
    _coarse_scan,
    _root_map_and_jacobian,
    decompose,
    orbit_distance,
    track_modulation,
)
from conformalflow.observables import higher_charge
from conformalflow.state import gauge_apply, ground_amplitudes, weighted_norm


def perturbation(seed: int, n: int, eps: float) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    pert = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return pert * (eps / weighted_norm(pert, 1.0))


def test_decompose_exact_ground_state():
    n_modes = 64
    for p in (0.3, 0.55):
        alpha = gauge_apply(1.001 * ground_amplitudes(p, n_modes), 0.4, -0.2)
        frame = decompose(alpha, p)
        assert frame.c == pytest.approx(1.001, abs=1e-12)
        assert frame.p == pytest.approx(p, abs=1e-12)
        assert abs((frame.theta_orbit - 0.4 + np.pi) % (2 * np.pi) - np.pi) <= 1e-11
        assert abs((frame.mu + 0.2 + np.pi) % (2 * np.pi) - np.pi) <= 1e-11
        assert np.max(np.abs(frame.a)) <= 1e-12
        assert np.max(np.abs(frame.b)) <= 1e-12


def test_decompose_reconstructs_perturbed_state():
    n_modes = 64
    p = 0.5
    alpha = ground_amplitudes(p, n_modes) + perturbation(3, n_modes, 1e-3)
    frame = decompose(alpha, p)
    np.testing.assert_allclose(frame.reconstruct(), alpha, atol=1e-13)
    assert np.max(np.abs(frame.constraint_residuals())) <= 1e-12
    # Newton converges quadratically: final residual tiny, few iterations
    assert frame.residual_history[-1] <= 1e-13
    assert len(frame.residual_history) <= 12


@pytest.mark.parametrize("n_modes", [32, 512])
@pytest.mark.parametrize(
    "q", [0.03, 0.3, 0.6, 0.0, 1e-3, pytest.param(0.3 * np.exp(0.4j), id="0.3e^0.4i")]
)
def test_root_map_jacobian_matches_central_differences(n_modes, q):
    # x = (c, theta_orbit, Re q, Im q) sits at q, which the perturbation moves
    # off the root, and off it in c and theta; q = 0 is a regular point
    alpha = gauge_apply(
        ground_amplitudes(abs(q), n_modes) + perturbation(70, n_modes, 1e-3), 0.7, np.angle(q)
    )
    x = np.array([1.01, 0.72, np.real(q), np.imag(q)])
    _, jac = _root_map_and_jacobian(x, alpha)
    h = 1e-6
    central = np.empty((4, 4))
    for k in range(4):
        step = h * np.eye(4)[k]
        f_plus = _root_map_and_jacobian(x + step, alpha)[0]
        f_minus = _root_map_and_jacobian(x - step, alpha)[0]
        central[:, k] = (f_plus - f_minus) / (2 * h)
    assert np.max(np.abs(jac - central)) <= 1e-7 * np.max(np.abs(jac))


def test_decompose_q0_closed_form():
    # alpha_1 = 0 puts the root at q = 0: c = |alpha_0|, theta = arg alpha_0 and
    # the constraints r_0 = r_1 = 0
    n_modes = 32
    alpha = np.zeros(n_modes, dtype=complex)
    alpha[0] = 1.01 * np.exp(0.3j)
    alpha[3] = 1e-3
    frame = decompose(alpha, 0.0)
    assert frame.c == pytest.approx(1.01, abs=1e-14)
    assert frame.p <= 1e-15 and frame.mu == pytest.approx(0.0, abs=1e-15)
    assert frame.theta == pytest.approx(0.3, abs=1e-14)
    assert np.max(np.abs(frame.constraint_residuals())) <= 1e-10
    np.testing.assert_allclose(frame.reconstruct(), alpha, atol=1e-13)


@pytest.mark.parametrize("p0", [0.0, 0.005])
def test_decompose_small_p_tracks_p(p0):
    # one chart through q = 0: a perturbed A(p0) keeps its p, which is not set to 0
    n_modes = 32
    eps = 1e-4
    alpha = gauge_apply(ground_amplitudes(p0, n_modes) + perturbation(63, n_modes, eps), 0.4, -1.2)
    frame = decompose(alpha, p0)
    assert abs(frame.c - 1.0) <= 5 * eps
    assert abs(frame.p - p0) <= 5 * eps
    assert np.max(np.abs(frame.constraint_residuals())) <= 1e-10
    np.testing.assert_allclose(frame.reconstruct(), alpha, atol=1e-13)


def test_decompose_p0_rejects_distant_state():
    # a p = 0 state with c = 1.5 lies outside the orbit neighborhood
    alpha = np.zeros(16, dtype=complex)
    alpha[0] = 1.5
    with pytest.raises(NoConvergence):
        decompose(alpha, 0.0)


def test_decompose_rejects_far_state():
    n_modes = 32
    alpha = 3.0 * ground_amplitudes(0.5, n_modes).astype(complex)
    with pytest.raises(NoConvergence):
        decompose(alpha, 0.5)


def test_decompose_zero_state_has_singular_jacobian():
    with pytest.raises(NoConvergence, match="singular root-map Jacobian"):
        decompose(np.zeros(16, dtype=complex), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_non_finite_state(bad):
    alpha = ground_amplitudes(0.5, 16).astype(complex)
    alpha[3] = bad
    with np.errstate(all="ignore"), pytest.raises(NoConvergence, match="non-finite Newton step"):
        decompose(alpha, 0.5)


def test_decompose_reports_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(modulation, "NEWTON_MAX_ITER", 1)
    alpha = ground_amplitudes(0.5, 16) + perturbation(7, 16, 1e-3)
    with pytest.raises(NoConvergence, match="no convergence after 1 iterations"):
        decompose(alpha, 0.5)


def test_track_modulation_names_the_failed_sample():
    traj = integrate(ground_amplitudes(0.5, 16).astype(complex), IntegratorConfig(t_end=0.5, sample_dt=0.25))
    traj.states[1] = 0.0
    with pytest.raises(NoConvergence, match="tracking failed at sample 1"):
        track_modulation(traj, 0.5)


def test_orbit_distance_zero_on_orbit():
    p = 0.45
    for n_modes in (96, 512):
        alpha = gauge_apply(ground_amplitudes(p, n_modes), 1.1, 0.7)
        for s in (0.5, 1.0):
            result = orbit_distance(alpha, p, s)
            assert result.distance <= 1e-10
            assert result.theta == pytest.approx(1.1, abs=1e-6)
            assert result.mu == pytest.approx(0.7, abs=1e-6)


@pytest.mark.parametrize("n_modes", [16, 48, 512])
def test_coarse_scan_matches_dense_phase_matrix(n_modes):
    # reference: h on the 8N-point grid from the dense 8N x N phase matrix
    p = 0.45
    alpha = gauge_apply(ground_amplitudes(p, n_modes), 0.3, 2.1)
    alpha += perturbation(70 + n_modes, n_modes, 1e-2)
    n = np.arange(n_modes)
    grid = np.linspace(0.0, 2.0 * np.pi, 8 * n_modes, endpoint=False)
    for s in (0.0, 0.5, 1.0):
        coeffs = (n + 1.0) ** (2.0 * s) * np.conj(alpha) * ground_amplitudes(p, n_modes)
        dense = np.abs(np.exp(1j * np.outer(grid, n)) @ coeffs)
        scan = 8 * n_modes * _coarse_scan(coeffs)
        assert scan.shape == dense.shape
        assert np.max(np.abs(scan - dense)) <= 1e-12 * np.max(dense)
        assert np.argmax(scan) == np.argmax(dense)


def test_orbit_distance_matches_brute_force():
    grid = np.linspace(0, 2 * np.pi, 240, endpoint=False)
    # (N, p, perturbation seed, gauge grid indices); a rotation by grid angles
    # moves the optimum by whole grid cells, away from (0, 0) and across 2 pi
    cases = [(48, 0.4, 8, (0, 0)), (48, 0.6, 82, (37, 229)), (512, 0.4, 83, (101, 120))]
    for n_modes, p, seed, (i_theta, i_mu) in cases:
        ground = ground_amplitudes(p, n_modes)
        alpha = gauge_apply(ground + perturbation(seed, n_modes, 1e-2), grid[i_theta], grid[i_mu])
        result = orbit_distance(alpha, p, 1.0)
        # every (theta, mu) of the 240 x 240 grid, one row of mu per theta
        weights = (np.arange(n_modes) + 1.0) ** 2
        orbit_mu = np.exp(1j * np.outer(grid, np.arange(n_modes))) * ground
        best = min(
            np.min(np.sqrt(np.abs(alpha - np.exp(1j * theta) * orbit_mu) ** 2 @ weights))
            for theta in grid
        )
        assert result.distance <= best + 1e-12
        assert result.distance >= best - 2e-4  # coarse grid overshoots slightly
        # the refined mu is a maximum of |h(mu)| to well below the 8N-point grid spacing
        coeffs = weights * np.conj(alpha) * ground
        mus = result.mu + np.array([-1e-6, 0.0, 1e-6])
        h_abs = np.abs(np.exp(1j * np.outer(mus, np.arange(n_modes))) @ coeffs)
        assert h_abs[1] >= max(h_abs[0], h_abs[2])


def test_orbit_distance_degenerate_inputs():
    for n_modes in (48, 512):
        n = np.arange(n_modes)
        # p = 0: h(mu) = conj(alpha_0) does not depend on mu
        alpha = np.where(n < 5, 1e-3, 0.0) + 0.0j
        alpha[0] = 0.9 * np.exp(0.3j)
        # alpha = 0: h vanishes
        zero = np.zeros(n_modes, dtype=complex)
        # a single mode: |h| is flat up to rounding, so g' is noise
        single = np.zeros(n_modes, dtype=complex)
        single[3] = 0.7 * np.exp(1.1j)
        for s in (0.0, 0.5, 1.0):
            weights = (n + 1.0) ** (2.0 * s)
            result = orbit_distance(alpha, 0.0, s)
            want = np.sqrt(0.1**2 + weights[1:] @ np.abs(alpha[1:]) ** 2)
            assert result.distance == pytest.approx(want, rel=1e-14)
            assert result.theta == pytest.approx(0.3, abs=1e-14)
            ground = ground_amplitudes(0.4, n_modes)
            result = orbit_distance(zero, 0.4, s)
            assert result.distance == pytest.approx(weighted_norm(ground, s), rel=1e-14)
            assert result.theta == 0.0
            ground = ground_amplitudes(0.5, n_modes)
            want = np.sqrt(weights @ ground**2 - weights[3] * (ground[3] ** 2 - (0.7 - ground[3]) ** 2))
            assert orbit_distance(single, 0.5, s).distance == pytest.approx(want, rel=1e-14)


def test_orbit_distance_gauge_invariant():
    n_modes = 48
    alpha = ground_amplitudes(0.3, n_modes) + perturbation(9, n_modes, 1e-2)
    d0 = orbit_distance(alpha, 0.3, 0.5).distance
    d1 = orbit_distance(gauge_apply(alpha, 2.2, -0.9), 0.3, 0.5).distance
    assert d0 == pytest.approx(d1, rel=1e-9)


def test_parameter_recovery_within_bound():
    # perturbation eps = 1e-3: recovered (c, p, theta, mu) within 5 eps of truth
    n_modes = 64
    eps = 1e-3
    for seed, (c0, p0, th0, mu0) in enumerate(
        [(1.0, 0.5, 0.0, 0.0), (0.999, 0.35, 0.8, -0.4), (1.002, 0.6, -1.0, 2.0)]
    ):
        truth = gauge_apply(c0 * ground_amplitudes(p0, n_modes), th0 + mu0, mu0)
        alpha = truth + perturbation(50 + seed, n_modes, eps)
        frame = decompose(alpha, p0)
        assert abs(frame.c - c0) <= 5 * eps
        assert abs(frame.p - p0) <= 5 * eps
        assert abs((frame.theta_orbit - th0 - mu0 + np.pi) % (2 * np.pi) - np.pi) <= 5 * eps
        assert abs((frame.mu - mu0 + np.pi) % (2 * np.pi) - np.pi) <= 5 * eps


def test_track_modulation_short_trajectory():
    n_modes = 48
    p0 = 0.45
    alpha0 = ground_amplitudes(p0, n_modes) + perturbation(60, n_modes, 1e-3)
    traj = integrate(alpha0, IntegratorConfig(t_end=2.0, sample_dt=0.25))
    track = track_modulation(traj, p0)
    assert track.times.size == traj.times.size
    assert np.max(np.abs(track.p - p0)) <= 1e-2
    assert np.max(track.constraint_residual) <= 1e-10
    assert np.max(np.abs(track.energy_budget_error)) <= 1e-8
    assert np.max(track.dist_h1) <= 5e-3


def test_decompose_and_track_reuse_computed_values():
    # the remainder is the rotated state minus c A(p) and E(alpha(0)) comes from
    # the trajectory; both equal a fresh evaluation bitwise
    n_modes, p0 = 32, 0.45
    alpha0 = ground_amplitudes(p0, n_modes) + perturbation(62, n_modes, 1e-3)
    frame = decompose(alpha0, p0)
    rotated = np.exp(-1j * (frame.theta + frame.mu * np.arange(1.0, n_modes + 1))) * alpha0
    assert np.array_equal(frame.a, rotated.real - frame.c * ground_amplitudes(frame.p, n_modes))
    assert np.array_equal(frame.b, rotated.imag)

    traj = integrate(alpha0, IntegratorConfig(t_end=0.5, sample_dt=0.25))
    track = track_modulation(traj, p0)
    frames = [decompose(traj.states[0], p0)]
    lam = traj.H[0] / traj.Q[0]
    for state, dt in zip(traj.states[1:], np.diff(traj.times)):
        seed = replace(frames[-1], theta=frames[-1].theta - lam * dt)
        frames.append(decompose(state, p0, seed_frame=seed))
    m_diag = np.arange(1.0, n_modes + 1)
    e_model = [
        f.c**2 * (1.0 + f.p**2) / (1.0 - f.p**2)
        + np.sum((m_diag * f.a) ** 2)
        + np.sum((m_diag * f.b) ** 2)
        for f in frames
    ]
    e_ref = higher_charge(traj.states[0])
    assert traj.E[0] == e_ref
    assert np.array_equal(track.energy_budget_error, np.array(e_model) - e_ref)
    for name in ("c", "p", "theta", "mu"):
        assert np.array_equal(getattr(track, name), [getattr(f, name) for f in frames])


@pytest.mark.parametrize("p0", [0.0, 0.005])
def test_track_modulation_small_p(p0):
    n_modes = 32
    alpha0 = ground_amplitudes(p0, n_modes) + perturbation(61, n_modes, 1e-4)
    traj = integrate(alpha0, IntegratorConfig(t_end=1.0, sample_dt=0.25))
    track = track_modulation(traj, p0)
    assert np.max(np.abs(track.p - p0)) <= 5e-4
    assert np.max(track.constraint_residual) <= 1e-10
    assert np.max(np.abs(track.energy_budget_error)) <= 1e-9


@pytest.mark.parametrize("sample_dt", [2.0, 3.0, 5.0])
def test_track_modulation_wide_sample_spacing(sample_dt):
    # the state turns by about lambda sample_dt between samples; each frame is
    # seeded with that turn, not with the previous theta
    n_modes, p0 = 32, 0.5
    alpha0 = ground_amplitudes(p0, n_modes) + perturbation(64, n_modes, 1e-2)
    traj = integrate(alpha0, IntegratorConfig(t_end=10.0, sample_dt=sample_dt))
    track = track_modulation(traj, p0)
    assert np.all(track.newton_iters <= 3)
    assert np.max(np.abs(track.c - 1.0)) <= 1e-3
    assert np.max(np.abs(track.p - p0)) <= 1e-3
    assert np.max(track.constraint_residual) <= 1e-10
    assert np.max(np.abs(track.energy_budget_error)) <= 1e-9


def test_track_modulation_searches_the_gauge_once_per_sample(monkeypatch):
    # dist_h12 is read off the frame and dist_h1 is refined from the frame's
    # mu: the grid scan runs for the first frame's seed, and again only where
    # a seeded refinement falls back to it
    scans, seeds = [], []
    scan, search = modulation._coarse_scan, modulation._orbit_distance

    def counted_search(alpha, p, s, mu_seed=None):
        seeds.append(mu_seed)
        return search(alpha, p, s, mu_seed)

    n_modes, p0 = 32, 0.5
    alpha0 = ground_amplitudes(p0, n_modes) + perturbation(65, n_modes, 1e-3)
    traj = integrate(alpha0, IntegratorConfig(t_end=1.0, sample_dt=0.25))
    monkeypatch.setattr(modulation, "_coarse_scan", lambda c: scans.append(None) or scan(c))
    monkeypatch.setattr(modulation, "_orbit_distance", counted_search)
    track = track_modulation(traj, p0)
    assert seeds == [None] + list(track.mu)
    # near A(0.5) the frame's mu lies in the h^1 optimum's grid cell: no fallback
    assert len(scans) == 1


def test_seeded_orbit_distance_falls_back_to_the_scan(monkeypatch):
    # a seed several grid cells off ends on its bracket's edge; the search then
    # scans once and is the unseeded one, bitwise
    n_modes, p = 64, 0.5
    alpha = gauge_apply(ground_amplitudes(p, n_modes), 0.4, 1.1)
    alpha = alpha + perturbation(67, n_modes, 1e-3)
    want = orbit_distance(alpha, p, 1.0)
    scans = []
    scan = modulation._coarse_scan
    monkeypatch.setattr(modulation, "_coarse_scan", lambda c: scans.append(None) or scan(c))
    span = 2.0 * np.pi / (8 * n_modes)
    for cells in (-6, 5, 40):
        scans.clear()
        got = modulation._orbit_distance(alpha, p, 1.0, mu_seed=want.mu + cells * span)
        assert (got.distance, got.theta, got.mu) == (want.distance, want.theta, want.mu)
        assert len(scans) == 1
    # seeded at the optimum itself it stays there and scans nothing
    scans.clear()
    near = modulation._orbit_distance(alpha, p, 1.0, mu_seed=want.mu)
    assert not scans
    assert near.distance == pytest.approx(want.distance, rel=1e-14, abs=0)
    assert abs(near.mu - want.mu) < 1e-12


def test_tracked_dist_h1_at_tiny_p_is_no_worse_than_the_scan():
    # N = 512 from A(0): p(t) ~ 1e-7 leaves g = |h|^2 flat to rounding over
    # the grid, so the scan's maximum lands cells away from the optimum and
    # its refinement cannot leave that cell; seeded by the frame's mu, the
    # tracked dist_h1 is the norm at its own gauge and never above the scan's
    n_modes, p0 = 512, 0.0
    alpha0 = ground_amplitudes(p0, n_modes) + perturbation(66, n_modes, 1e-3)
    traj = integrate(alpha0, IntegratorConfig(t_end=1.0, sample_dt=0.25))
    track = track_modulation(traj, p0)
    scanned = np.array([orbit_distance(s, p, 1.0).distance for s, p in zip(traj.states, track.p)])
    assert np.all(track.dist_h1 <= scanned)
    assert np.any(track.dist_h1 < scanned)
    for state, p, mu, dist in zip(traj.states, track.p, track.mu, track.dist_h1):
        seeded = modulation._orbit_distance(state, p, 1.0, mu_seed=mu)
        assert seeded.distance == dist
        orbit_point = gauge_apply(ground_amplitudes(p, n_modes), seeded.theta, seeded.mu)
        assert weighted_norm(state - orbit_point, 1.0) == pytest.approx(dist, rel=1e-12, abs=0)


#: cells (p0, delta) of each N where the gauge search, not the frame, sets the
#: gap: p(t) ~ 1e-7 leaves g = |h|^2 flat in mu to rounding, so the search
#: misplaces mu and reads d^2 high by ~1e-16 (2e-8 relative at d ~ 5e-5)
SEARCH_FLOOR_CELLS = {16: set(), 48: set(), 64: set(), 512: {(0.0, 1e-3)}}


@pytest.mark.parametrize("n_modes", [16, 48, 64, 512])
def test_track_dist_h12_is_the_orbit_optimum(n_modes):
    # the frame's gauge is the h^{1/2} optimum: its distance matches the gauge
    # search within 1e-12, or lies below it by no more than the search's
    # rounding floor in d^2; where the tail of A(p0) is negligible it also
    # matches the charge budget c^2 + R_{1/2} = Q, i.e. d^2 = 1 + Q - 2c
    floor_cells = set()
    for p0 in (0.0, 0.005, 0.5, 0.9):
        for delta in (1e-3, 0.1):
            alpha0 = ground_amplitudes(p0, n_modes) + perturbation(66, n_modes, delta)
            traj = integrate(alpha0, IntegratorConfig(t_end=1.0, sample_dt=0.25))
            track = track_modulation(traj, p0)
            oracle = np.array(
                [orbit_distance(s, p, 0.5).distance for s, p in zip(traj.states, track.p)]
            )
            # the frame's value is a distance at one gauge, an upper bound on the optimum
            direct = [
                weighted_norm(s - gauge_apply(ground_amplitudes(p, n_modes), th + mu, mu), 0.5)
                for s, p, th, mu in zip(traj.states, track.p, track.theta, track.mu)
            ]
            np.testing.assert_allclose(track.dist_h12, direct, rtol=1e-12, atol=0)
            if np.max(np.abs(track.dist_h12 - oracle) / oracle) > 1e-12:
                floor_cells.add((p0, delta))
                assert np.all(track.dist_h12 < oracle)
                assert np.max(oracle**2 - track.dist_h12**2) <= 1e-15
            if p0**n_modes <= 1e-15:
                budget = track.dist_h12**2 - (1.0 + traj.Q - 2.0 * track.c)
                assert np.max(np.abs(budget)) <= 5e-13
    assert floor_cells == SEARCH_FLOOR_CELLS[n_modes]
