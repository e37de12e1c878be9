"""Modulation decomposition, orbit distance, trajectory tracking."""

import numpy as np
import pytest

from conformalflow.flow import IntegratorConfig, integrate
from conformalflow.modulation import (
    NoConvergence,
    _coarse_scan,
    decompose,
    decompose_p0,
    orbit_distance,
    track_modulation,
)
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
    assert frame.mu_defined
    # Newton converges quadratically: final residual tiny, few iterations
    assert frame.residual_history[-1] <= 1e-13
    assert len(frame.residual_history) <= 12


def test_decompose_p0_closed_form():
    n_modes = 32
    alpha = np.zeros(n_modes, dtype=complex)
    alpha[0] = 1.01 * np.exp(0.3j)
    alpha[3] = 1e-3
    frame = decompose_p0(alpha)
    assert not frame.mu_defined
    assert frame.c == pytest.approx(1.01)
    assert frame.theta == pytest.approx(0.3)
    assert frame.a[0] == 0.0 and frame.b[0] == 0.0
    np.testing.assert_allclose(frame.reconstruct(), alpha, atol=1e-15)


def test_decompose_p0_rejects_distant_state():
    alpha = np.zeros(16, dtype=complex)
    alpha[0] = 1.5
    with pytest.raises(NoConvergence):
        decompose_p0(alpha)


def test_decompose_small_p_falls_back():
    alpha = np.zeros(16, dtype=complex)
    alpha[0] = 1.0
    frame = decompose(alpha, 0.005)
    assert not frame.mu_defined
    assert frame.p == 0.0


def test_decompose_rejects_far_state():
    n_modes = 32
    alpha = 3.0 * ground_amplitudes(0.5, n_modes).astype(complex)
    with pytest.raises(NoConvergence):
        decompose(alpha, 0.5)


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


def test_track_modulation_p0_branch():
    n_modes = 32
    alpha0 = ground_amplitudes(0.0, n_modes) + perturbation(61, n_modes, 1e-4)
    traj = integrate(alpha0, IntegratorConfig(t_end=1.0, sample_dt=0.25))
    track = track_modulation(traj, 0.0)
    assert np.all(track.p == 0.0)
    assert np.max(np.abs(track.energy_budget_error)) <= 1e-9
