"""Exact-trajectory oracle on the invariant manifold alpha_n = (b + c n) p^n.

The three-dimensional family alpha_n = (b + c n) p^n (complex b, c, p) is
invariant under the conformal flow (Bizon, Craps, Evnin, Hunik, Luyten,
Maliborski, arXiv:1608.07227, where it reads b + a n / p): on it F_n / p^n is
a quadratic polynomial in n, so i d(alpha_n)/dt = F_n for n = 0, 1, 2 fixes
the motion of (b, c, p):

    b' = -i F_0,
    (b' + c') p + (b + c) p' = -i F_1,
    (b' + 2c') p^2 + 2p (b + 2c) p' = -i F_2.

F_0, F_1, F_2 of the untruncated system come from M-term direct sums with
precomputed min(n, j, k, m) + 1 weights, independent of ``kernel.py``; the
terms left out are of order |p|^M.  The reduced ODE is solved far tighter
than the production tolerance, and ``integrate``'s whole trajectory is
compared with it.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conformalflow.flow import IntegratorConfig, integrate, vector_field_naive

B0, C0, P0 = 0.7 + 0.1j, 0.05 - 0.02j, 0.4 + 0.05j
ORACLE_MODES = 64
T_END = 50.0
#: integrate against the reduced solution, rel_tol 1e-10, measured on 2 vCPUs:
#: 1.6e-13 (N = 48, t <= 50) and 5.5e-14 (N = 512, t <= 3) in the co-rotating
#: frame, 9.4e-9 and 6.3e-10 in the lab frame; the reduced solution itself
#: moves by 2e-13 between rtol 3e-14 and 1e-13
INTEGRATOR_BOUND = 1e-12


def manifold_modes(b: complex, c: complex, p: complex, n_modes: int) -> np.ndarray:
    n = np.arange(n_modes)
    return (b + c * n) * p**n


def low_mode_field(n_modes: int):
    """alpha -> (F_0, F_1, F_2) by direct summation over n_modes modes."""
    j, k = np.meshgrid(np.arange(n_modes), np.arange(n_modes), indexing="ij")
    terms, offsets = [], []
    for n in range(3):
        m = n + j - k
        ok = (m >= 0) & (m < n_modes)
        weight = (np.minimum(np.minimum(j, k), np.minimum(m, n)) + 1.0) / (n + 1.0)
        offsets.append(sum(term[0].size for term in terms))
        terms.append((j[ok], k[ok], m[ok], weight[ok]))
    jj, kk, mm, ww = (np.concatenate(column) for column in zip(*terms))

    def field(alpha: np.ndarray) -> np.ndarray:
        return np.add.reduceat(ww * np.conj(alpha[jj]) * alpha[kk] * alpha[mm], offsets)

    return field


def reduced_trajectory(times: np.ndarray, n_modes: int = ORACLE_MODES) -> np.ndarray:
    """(b, c, p) at ``times`` from the reduced ODE, one row per time."""
    field = low_mode_field(n_modes)

    def rhs(t, y):
        b, c, p = y
        f0, f1, f2 = field(manifold_modes(b, c, p, n_modes))
        db = -1j * f0
        r1 = -1j * f1 - db * p
        r2 = -1j * f2 - db * p * p
        # Cramer's rule; the determinant 2 p^2 c stays away from zero here
        det = 2.0 * p * p * c
        dc = (2.0 * p * (b + 2.0 * c) * r1 - (b + c) * r2) / det
        dp = (p * r2 - 2.0 * p * p * r1) / det
        return np.array([db, dc, dp])

    sol = solve_ivp(
        rhs, (0.0, times[-1]), np.array([B0, C0, P0]), method="DOP853",
        t_eval=times, rtol=3e-14, atol=1e-16,
    )  # fmt: skip
    assert sol.success, sol.message
    return sol.y.T


@pytest.fixture(scope="module")
def reduced():
    times = np.arange(0.0, T_END + 0.5, 1.0)
    params = reduced_trajectory(times)
    p_max = float(np.max(np.abs(params[:, 2])))
    # the direct sums leave out terms of order |p|^M
    assert p_max**ORACLE_MODES < 1e-20
    assert np.min(np.abs(params[:, 1])) > 1e-2
    return times, params, p_max


def test_direct_sums_match_naive_field():
    # on M modes, the M-term sums are the first three entries of the cubic oracle
    alpha = manifold_modes(B0, C0, P0, 40)
    np.testing.assert_allclose(
        low_mode_field(40)(alpha), vector_field_naive(alpha)[:3], rtol=1e-14, atol=0
    )


def test_field_stays_on_manifold():
    # F_n / p^n is quadratic in n, up to the truncation tail, over the low modes
    n_modes, p = 72, 0.45 - 0.1j
    field = vector_field_naive(manifold_modes(0.3 + 0.2j, -0.1 + 0.05j, p, n_modes))
    n = np.arange(n_modes // 3)
    ratio = field[: n.size] / p**n
    basis = np.vander(n, 3)
    coeffs = np.linalg.lstsq(basis, ratio, rcond=None)[0]
    assert np.max(np.abs(basis @ coeffs - ratio)) <= 1e-13 * np.max(np.abs(ratio))


@pytest.mark.parametrize("n_modes,t_end", [(48, T_END), (512, 3.0)])
def test_trajectory_matches_invariant_manifold(reduced, n_modes, t_end):
    times, params, p_max = reduced
    keep = times <= t_end
    cfg = IntegratorConfig(t_end=t_end, sample_dt=1.0, oracle_check_stride=None)
    traj = integrate(manifold_modes(B0, C0, P0, n_modes), cfg)
    np.testing.assert_array_equal(traj.times, times[keep])
    want = np.array([manifold_modes(*row, n_modes) for row in params[keep]])
    err = np.linalg.norm(traj.states - want, axis=1) / np.linalg.norm(want, axis=1)
    # the N-mode system leaves the manifold at order |p|^N: measured
    # max err / p_max^N between 0.10 and 0.17 at N in {12, 16, 24, 32}
    assert np.max(err) <= INTEGRATOR_BOUND + p_max**n_modes
