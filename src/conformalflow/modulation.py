"""Symplectically orthogonal decomposition around the ground-state orbit.

A state close to the orbit of A(p) is written as

    alpha_n = e^{i (theta + mu + mu n)} ( c A_n(p) + a_n + i b_n ),

with the real remainders (a, b) orthogonal to M A(p) and M A'(p).  The four
parameters are found by Newton iteration on the projection root map; near
p = 0 the mu-direction degenerates (<MA', MA> -> 0) and the two-parameter
form (c, theta) is used instead.  The stored (theta, mu) follow the
decomposition convention; the orbit convention differs by theta_orbit =
theta + mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import TrajectoryRecord
from .state import (
    gauge_apply,
    ground_amplitudes,
    ground_derivative,
    ground_second_derivative,
    weighted_norm,
)

__all__ = [
    "ModulationFrame",
    "OrbitDistanceResult",
    "ModulationTrack",
    "NoConvergence",
    "DegenerateJacobian",
    "decompose_p0",
    "decompose",
    "orbit_distance",
    "track_modulation",
]

#: neighborhood radius |c - 1| <= DELTA0 within which a decomposition is accepted
DELTA0 = 0.1
#: below this p the four-parameter Jacobian degenerates; fall back to p = 0 form
P_DEGENERATE = 0.02
#: decompose stops when the scaled root-map residual drops below NEWTON_TOL
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 60
#: orbit_distance's safeguarded Newton refinement stops after this many steps;
#: 2 suffice on trajectory states, bisecting the grid cell to 1e-15 takes 50
REFINE_MAX_ITER = 60


class NoConvergence(ArithmeticError):
    """No decomposition within the orbit neighborhood (Newton failed or left it)."""


class DegenerateJacobian(NoConvergence):
    """The mu-direction collapsed (p too close to 0); use decompose_p0."""


@dataclass
class ModulationFrame:
    c: float
    p: float
    theta: float
    mu: float
    a: np.ndarray
    b: np.ndarray
    mu_defined: bool = True
    residual_history: list[float] = field(default_factory=list)

    @property
    def theta_orbit(self) -> float:
        """Phase in the orbit convention e^{i theta_orbit + i mu n}."""
        return self.theta + self.mu

    def reconstruct(self) -> np.ndarray:
        inner = self.c * ground_amplitudes(self.p, self.a.size) + self.a + 1j * self.b
        return gauge_apply(inner, self.theta_orbit, self.mu)

    def constraint_residuals(self) -> np.ndarray:
        """The imposed orthogonality constraints at (a, b): four with mu, else
        the two of the p = 0 form, <MA(0), a> and <MA(0), b>."""
        n_modes = self.a.size
        m_diag = np.arange(1, n_modes + 1, dtype=np.float64)
        wa = m_diag * ground_amplitudes(self.p, n_modes)
        if not self.mu_defined:
            return np.array([wa @ self.a, wa @ self.b])
        wda = m_diag * ground_derivative(self.p, n_modes)
        return np.array([wa @ self.a, wda @ self.a, wa @ self.b, wda @ self.b])


@dataclass
class OrbitDistanceResult:
    distance: float
    theta: float  # orbit convention
    mu: float


def decompose_p0(alpha: np.ndarray) -> ModulationFrame:
    """Two-parameter decomposition alpha = e^{i theta}(c A(0) + a + i b).

    The constraints <MA(0), a> = <MA(0), b> = 0 reduce to a_0 = b_0 = 0, so
    the root map has the closed-form solution c = |alpha_0|, theta = arg
    alpha_0 (the exact fixed point of the Newton iteration).
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    c = float(np.abs(alpha[0]))
    if c < 1.0 - DELTA0 or c > 1.0 + DELTA0:
        raise NoConvergence(f"state too far from the p = 0 orbit: |alpha_0| = {c:.4g}")
    theta = float(np.angle(alpha[0]))
    rotated = np.exp(-1j * theta) * alpha
    # alpha_0 sits entirely in (c, theta); the constraints a_0 = b_0 = 0 are exact
    rotated[0] = 0.0
    a, b = rotated.real.copy(), rotated.imag.copy()
    return ModulationFrame(c, 0.0, theta, 0.0, a, b, mu_defined=False, residual_history=[0.0])


def _root_map_and_jacobian(
    x: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(c, p, theta, mu; alpha), its 4x4 Jacobian and the remainder a + i b.

    With z = e^{-i (theta + mu M)} alpha the root map is one complex residual
    G_k = <MA^(k), z> - c <MA^(k), A>, k = 0, 1 (A^(k) the k-th p-derivative),
    with dG_k/dc = -<MA^(k), A>, dG_k/dp = <MA^(k+1), z> - c(<MA^(k+1), A> +
    <MA^(k), A'>), dG_k/dtheta = -i <MA^(k), z> and dG_k/dmu = -i <MA^(k), Mz>.
    F = (Re G, Im G) and J = (Re dG; Im dG).
    """
    c, p, theta, mu = x
    n_modes = alpha.size
    m_diag = np.arange(1, n_modes + 1, dtype=np.float64)
    ground = ground_amplitudes(p, n_modes)
    dground = ground_derivative(p, n_modes)
    # rows M A, M A', M A''
    weights = m_diag * np.array([ground, dground, ground_second_derivative(p, n_modes)])
    z = np.exp(-1j * (theta + mu * m_diag)) * alpha
    w_z, w_a, w_da = weights @ z, weights @ ground, weights @ dground
    g = w_z[:2] - c * w_a[:2]
    dg_dp = w_z[1:] - c * (w_a[1:] + w_da[:2])
    dg = np.column_stack([-w_a[:2], dg_dp, -1j * w_z[:2], -1j * (weights[:2] @ (m_diag * z))])
    return np.concatenate([g.real, g.imag]), np.vstack([dg.real, dg.imag]), z - c * ground


def decompose(
    alpha: np.ndarray,
    p_init: float,
    seed_frame: ModulationFrame | None = None,
) -> ModulationFrame:
    """Four-parameter decomposition by Newton iteration on the root map.

    ``seed_frame`` supplies the starting point (continuation along a
    trajectory); otherwise a coarse orbit-distance scan seeds (theta, mu).
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    if p_init < P_DEGENERATE:
        return decompose_p0(alpha)
    if seed_frame is not None:
        x = np.array([seed_frame.c, seed_frame.p, seed_frame.theta, seed_frame.mu])
    else:
        scan = orbit_distance(alpha, p_init, s=0.0)
        x = np.array([1.0, p_init, scan.theta - scan.mu, scan.mu])

    scale = max(weighted_norm(alpha, 0.5), 1.0)
    history: list[float] = []
    for _ in range(NEWTON_MAX_ITER):
        f_vec, jac, remainder = _root_map_and_jacobian(x, alpha)
        res = float(np.linalg.norm(f_vec)) / scale
        history.append(res)
        if res < NEWTON_TOL:
            break
        if x[1] < P_DEGENERATE:
            raise DegenerateJacobian(
                f"p drifted to {x[1]:.4g}; mu-direction degenerate, use decompose_p0"
            )
        cond = np.linalg.cond(jac)
        if not np.isfinite(cond) or cond > 1e12:
            raise DegenerateJacobian(f"root-map Jacobian ill-conditioned (cond {cond:.3g})")
        x = x - np.linalg.solve(jac, f_vec)
        if not (0.0 <= x[1] < 1.0) or x[0] <= 0.0:
            raise NoConvergence(
                f"Newton iterate left the parameter domain: c={x[0]:.4g}, p={x[1]:.4g}"
            )
    else:
        raise NoConvergence(
            f"no convergence after {NEWTON_MAX_ITER} iterations (residual {history[-1]:.3e})"
        )

    c, p, theta, mu = map(float, x)
    if abs(c - 1.0) > DELTA0:
        raise NoConvergence(f"converged outside the orbit neighborhood: c = {c:.4g}")
    # the last iteration evaluated the root map at the converged x
    a, b = remainder.real.copy(), remainder.imag.copy()
    return ModulationFrame(c, p, theta, mu, a, b, residual_history=history)


def _coarse_scan(coeffs: np.ndarray) -> np.ndarray:
    """|h(mu_k)| / (8N) on the grid mu_k = 2 pi k / (8N), k = 0 .. 8N - 1.

    h(mu_k) = sum_n coeffs_n e^{2 pi i k n / (8N)} = 8N ifft(coeffs, 8N)[k]: one
    zero-padded FFT, O(N log N).  The factor 8N does not move the argmax.
    """
    return np.abs(np.fft.ifft(coeffs, 8 * coeffs.size))


def orbit_distance(alpha: np.ndarray, p: float, s: float) -> OrbitDistanceResult:
    """Gauge-minimized distance inf_{theta,mu} ||alpha - e^{i theta + i mu n} A(p)||_{h^s}.

    The cross term reduces the problem to maximizing g = |h|^2 with h(mu) =
    sum (n+1)^{2s} conj(alpha_n) A_n(p) e^{i mu n}, a trigonometric polynomial
    of degree < N: scan a uniform grid of 8N points, which is one zero-padded
    FFT, then refine by Newton on g'(mu) = 0 from the grid maximum, kept in
    the grid cell around it by bisection.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    n_modes = alpha.size
    n = np.arange(n_modes)
    weights = (n + 1.0) ** (2.0 * s)
    ground = ground_amplitudes(p, n_modes)
    coeffs = weights * np.conj(alpha) * ground

    span = 2.0 * np.pi / (8 * n_modes)
    mu_star = span * int(np.argmax(_coarse_scan(coeffs)))
    lo, hi = mu_star - span, mu_star + span
    for _ in range(REFINE_MAX_ITER):
        phase = np.exp(1j * mu_star * n)
        h0 = np.sum(coeffs * phase)
        h1 = np.sum(coeffs * (1j * n) * phase)
        h2 = np.sum(coeffs * -(n * n) * phase)
        g1 = 2.0 * np.real(np.conj(h0) * h1)
        g2 = 2.0 * np.real(np.conj(h1) * h1 + np.conj(h0) * h2)
        # g is flat (p = 0, alpha = 0) or mu_star is an exact critical point
        if g1 == 0.0:
            break
        # the maximum lies on the side g rises towards
        if g1 > 0.0:
            lo = mu_star
        else:
            hi = mu_star
        # Newton where g is concave and the step stays in the bracket, else bisect
        if g2 < 0.0 and lo < mu_star - g1 / g2 < hi:
            nxt = mu_star - g1 / g2
        else:
            nxt = 0.5 * (lo + hi)
        step, mu_star = nxt - mu_star, nxt
        if abs(step) <= 1e-15 * max(1.0, abs(mu_star)):
            break
    h_val = np.sum(coeffs * np.exp(1j * mu_star * n))
    theta_star = float(-np.angle(h_val)) if abs(h_val) > 0 else 0.0
    # evaluate the norm directly at the optimum; the expanded form
    # ||alpha||^2 + ||A||^2 - 2|h| loses half the digits to cancellation
    diff = alpha - gauge_apply(ground, theta_star, mu_star)
    return OrbitDistanceResult(weighted_norm(diff, s), theta_star, float(mu_star))


@dataclass
class ModulationTrack:
    """One entry per sample in each field; the field order is the track CSV's column order."""

    times: np.ndarray
    c: np.ndarray
    p: np.ndarray
    theta: np.ndarray
    mu: np.ndarray
    dist_h12: np.ndarray
    dist_h1: np.ndarray
    constraint_residual: np.ndarray
    newton_iters: np.ndarray  # entries of each frame's residual_history
    energy_budget_error: np.ndarray  # E-expansion identity residual per sample


def track_modulation(traj: TrajectoryRecord, p_init: float) -> ModulationTrack:
    """Decompose each trajectory sample, seeding Newton by continuation.

    Emits the tracked parameters, orbit distances at the tracked p(t), the
    constraint residual and the higher-charge budget error

        c^2 (1+p^2)/(1-p^2) + ||Ma||^2 + ||Mb||^2 - E(alpha(0)).
    """
    e_ref = traj.E[0]
    m_diag = np.arange(1, traj.states.shape[1] + 1, dtype=np.float64)
    rows = []  # one per sample: ModulationTrack's float fields, in order
    iters = []
    prev: ModulationFrame | None = None
    for idx, state in enumerate(traj.states):
        try:
            frame = decompose(state, p_init if prev is None else prev.p, seed_frame=prev)
        except NoConvergence as exc:
            raise NoConvergence(
                f"modulation tracking failed at sample {idx} (t = {traj.times[idx]:.6g}): {exc}"
            ) from exc
        prev = frame
        iters.append(len(frame.residual_history))
        e_model = (
            frame.c**2 * (1.0 + frame.p**2) / (1.0 - frame.p**2)
            + np.sum((m_diag * frame.a) ** 2)
            + np.sum((m_diag * frame.b) ** 2)
        )
        dists = [orbit_distance(state, frame.p, s).distance for s in (0.5, 1.0)]
        residual = np.max(np.abs(frame.constraint_residuals()))
        rows.append((frame.c, frame.p, frame.theta, frame.mu, *dists, residual, e_model - e_ref))
    *columns, budget = np.array(rows).T
    return ModulationTrack(traj.times.copy(), *columns, np.array(iters), budget)
