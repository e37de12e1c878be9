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
from .observables import higher_charge
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


class NoConvergence(RuntimeError):
    def __init__(self, message: str, residuals: list[float] | None = None):
        super().__init__(message)
        self.residuals = residuals or []


class DegenerateJacobian(RuntimeError):
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
        n = np.arange(self.a.size)
        ground = ground_amplitudes(self.p, self.a.size)
        inner = self.c * ground + self.a + 1j * self.b
        return np.exp(1j * (self.theta + self.mu + self.mu * n)) * inner

    def constraint_residuals(self) -> np.ndarray:
        n_modes = self.a.size
        m_diag = np.arange(1, n_modes + 1, dtype=np.float64)
        wa = m_diag * ground_amplitudes(self.p, n_modes)
        wda = m_diag * ground_derivative(self.p, n_modes)
        return np.array([wa @ self.a, wda @ self.a, wa @ self.b, wda @ self.b])


@dataclass
class OrbitDistanceResult:
    distance: float
    theta: float  # orbit convention
    mu: float
    s: float


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
    a = rotated.real.copy()
    b = rotated.imag.copy()
    # alpha_0 sits entirely in (c, theta); the constraints a_0 = b_0 = 0 are exact
    a[0] = 0.0
    b[0] = 0.0
    frame = ModulationFrame(c, 0.0, theta, 0.0, a, b, mu_defined=False)
    frame.residual_history.append(0.0)
    return frame


def _root_map_and_jacobian(
    x: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(c, p, theta, mu; alpha), its 4x4 Jacobian and the rotated state."""
    c, p, theta, mu = x
    n_modes = alpha.size
    n = np.arange(n_modes)
    m_diag = n + 1.0
    ground = ground_amplitudes(p, n_modes)
    dground = ground_derivative(p, n_modes)
    ddground = ground_second_derivative(p, n_modes)
    wa = m_diag * ground
    wda = m_diag * dground
    wdda = m_diag * ddground

    rotated = np.exp(-1j * (theta + mu * (n + 1.0))) * alpha
    u, v = rotated.real, rotated.imag
    f_vec = np.array(
        [wa @ u - c * (wa @ ground), wda @ u - c * (wda @ ground), wa @ v, wda @ v]
    )
    du_dtheta, dv_dtheta = v, -u
    du_dmu, dv_dmu = m_diag * v, -m_diag * u
    jac = np.empty((4, 4))
    jac[:, 0] = [-(wa @ ground), -(wda @ ground), 0.0, 0.0]
    jac[:, 1] = [
        wda @ u - c * ((wda @ ground) + (wa @ dground)),
        wdda @ u - c * ((wdda @ ground) + (wda @ dground)),
        wda @ v,
        wdda @ v,
    ]
    jac[:, 2] = [wa @ du_dtheta, wda @ du_dtheta, wa @ dv_dtheta, wda @ dv_dtheta]
    jac[:, 3] = [wa @ du_dmu, wda @ du_dmu, wa @ dv_dmu, wda @ dv_dmu]
    return f_vec, jac, rotated


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
        f_vec, jac, rotated = _root_map_and_jacobian(x, alpha)
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
                f"Newton iterate left the parameter domain: c={x[0]:.4g}, p={x[1]:.4g}",
                history,
            )
    else:
        raise NoConvergence(
            f"no convergence after {NEWTON_MAX_ITER} iterations (residual {history[-1]:.3e})",
            history,
        )

    c, p, theta, mu = x
    if abs(c - 1.0) > DELTA0:
        raise NoConvergence(
            f"converged outside the orbit neighborhood: c = {c:.4g}", history
        )
    _, _, rotated = _root_map_and_jacobian(x, alpha)
    ground = ground_amplitudes(p, alpha.size)
    a = rotated.real - c * ground
    b = rotated.imag.copy()
    frame = ModulationFrame(float(c), float(p), float(theta), float(mu), a, b)
    frame.residual_history = history
    return frame


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
    return OrbitDistanceResult(weighted_norm(diff, s), theta_star, float(mu_star), s)


@dataclass
class ModulationTrack:
    times: np.ndarray
    c: np.ndarray
    p: np.ndarray
    theta: np.ndarray
    mu: np.ndarray
    dist_h12: np.ndarray
    dist_h1: np.ndarray
    constraint_residual: np.ndarray
    energy_budget_error: np.ndarray  # E-expansion identity residual per sample


def track_modulation(traj: TrajectoryRecord, p_init: float) -> ModulationTrack:
    """Decompose each trajectory sample, seeding Newton by continuation.

    Emits the tracked parameters, orbit distances at the tracked p(t), the
    constraint residual and the higher-charge budget error

        c^2 (1+p^2)/(1-p^2) + ||Ma||^2 + ||Mb||^2 - E(alpha(0)).
    """
    e_ref = higher_charge(traj.states[0])
    cols = {k: [] for k in ("c", "p", "theta", "mu", "d12", "d1", "res", "ebud")}
    prev: ModulationFrame | None = None
    for idx, state in enumerate(traj.states):
        try:
            frame = decompose(state, p_init if prev is None else prev.p, seed_frame=prev)
        except (NoConvergence, DegenerateJacobian) as exc:
            raise NoConvergence(
                f"modulation tracking failed at sample {idx} (t = {traj.times[idx]:.6g}): {exc}"
            ) from exc
        prev = frame
        m_diag = np.arange(1, state.size + 1, dtype=np.float64)
        e_model = (
            frame.c**2 * (1.0 + frame.p**2) / (1.0 - frame.p**2)
            + np.sum((m_diag * frame.a) ** 2)
            + np.sum((m_diag * frame.b) ** 2)
        )
        cols["c"].append(frame.c)
        cols["p"].append(frame.p)
        cols["theta"].append(frame.theta)
        cols["mu"].append(frame.mu)
        cols["d12"].append(orbit_distance(state, frame.p, 0.5).distance)
        cols["d1"].append(orbit_distance(state, frame.p, 1.0).distance)
        cols["res"].append(float(np.max(np.abs(frame.constraint_residuals()))))
        cols["ebud"].append(e_model - e_ref)
    return ModulationTrack(
        times=traj.times.copy(),
        c=np.array(cols["c"]),
        p=np.array(cols["p"]),
        theta=np.array(cols["theta"]),
        mu=np.array(cols["mu"]),
        dist_h12=np.array(cols["d12"]),
        dist_h1=np.array(cols["d1"]),
        constraint_residual=np.array(cols["res"]),
        energy_budget_error=np.array(cols["ebud"]),
    )
