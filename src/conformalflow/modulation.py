"""Symplectically orthogonal decomposition around the ground-state orbit.

A state close to the orbit of A(p) is written in the q-chart as

    alpha = e^{i theta_orbit} ( c A(q) + r ),   A_n(q) = (1 - |q|^2) q^n,

with q = p e^{i mu}, so that e^{i theta_orbit} A(q) = gauge_apply(A(p),
theta_orbit, mu).  The remainder r satisfies two complex constraints,
sum (n+1) conj(A_n(q)) r_n = 0 and sum (n+1) conj(D_n(q)) r_n = 0 with
D = e^{-i mu} dA/d|q|, which for q != 0 are the four real orthogonality
conditions of (a, b) = e^{-i mu n} r to M A(p) and M A'(p).  The four real
unknowns (c, theta_orbit, Re q, Im q) are found by one Newton iteration that
is regular at q = 0, where the second constraint reads r_1 = 0.  A frame
stores p = |q| and mu = arg q, which is 0 at q = 0, and its theta in the
decomposition convention theta = theta_orbit - mu.  The constraints make its
gauge the h^{1/2}-nearest point of the orbit of A(p), so ``orbit_distance``'s
grid scan serves only the first frame's seed: the tracked h^1 distance is
its Newton refinement started at the frame's mu, with the scan as fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .flow import TrajectoryRecord
from .state import gauge_apply, ground_amplitudes, ground_derivative, weighted_norm

__all__ = [
    "ModulationFrame",
    "OrbitDistanceResult",
    "ModulationTrack",
    "NoConvergence",
    "decompose",
    "orbit_distance",
    "track_modulation",
]

#: neighborhood radius |c - 1| <= DELTA0 within which a decomposition is accepted
DELTA0 = 0.1
#: decompose stops when the scaled root-map residual drops below NEWTON_TOL
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 60
#: orbit_distance's safeguarded Newton refinement stops after this many steps;
#: 2 suffice on trajectory states, bisecting the grid cell to 1e-15 takes 50
REFINE_MAX_ITER = 60


class NoConvergence(ArithmeticError):
    """No decomposition within the orbit neighborhood (Newton failed or left it)."""


@dataclass
class ModulationFrame:
    c: float
    p: float
    theta: float
    mu: float
    a: np.ndarray
    b: np.ndarray
    residual_history: list[float] = field(default_factory=list)

    @property
    def theta_orbit(self) -> float:
        """Phase in the orbit convention e^{i theta_orbit + i mu n}."""
        return self.theta + self.mu

    def reconstruct(self) -> np.ndarray:
        inner = self.c * ground_amplitudes(self.p, self.a.size) + self.a + 1j * self.b
        return gauge_apply(inner, self.theta_orbit, self.mu)

    def constraint_residuals(self) -> np.ndarray:
        """The four imposed orthogonality constraints at (a, b): <MA, a>,
        <MA', a>, <MA, b>, <MA', b>; at p = 0 they read a_0, 2 a_1, b_0, 2 b_1."""
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


def _root_map_and_jacobian(x: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(c, theta_orbit, Re q, Im q; alpha) and its 4x4 Jacobian.

    With z = e^{-i theta_orbit} alpha and r = z - c A(q) the root map is one
    complex residual G = (sum (n+1) conj(A_n) r_n, sum (n+1) conj(D_n) r_n),
    D_n = n (1 - |q|^2) q^{n-1} - 2 conj(q) q^n.  Its derivatives are
    dG/dc = -<B, A>, dG/dtheta = -i <B, z> (B = A, D) and, from the Wirtinger
    derivatives of A and D, dG/dq = <d_qbar B, r> - c <B, d_q A> and
    dG/dqbar = <d_q B, r> - c <B, d_qbar A>, where <B, v> = sum (n+1)
    conj(B_n) v_n; then dG/dRe q = dG/dq + dG/dqbar and dG/dIm q = i (dG/dq -
    dG/dqbar).  F = (Re G, Im G) and J = (Re dG; Im dG).
    """
    c, theta, q = x[0], x[1], complex(x[2], x[3])
    n_modes = alpha.size
    n = np.arange(n_modes, dtype=np.float64)
    # powers[k + 2] = q^k for k = 0 .. N, and q^{-2} = q^{-1} = 0 below them
    k = np.arange(n_modes + 1)
    powers = np.concatenate((np.zeros(2), abs(q) ** k * np.exp(1j * np.angle(q) * k)))
    q_low2, q_low1, q_n, q_up1 = (powers[j : j + n_modes] for j in range(4))
    s, qbar = 1.0 - abs(q) ** 2, q.conjugate()
    ground = s * q_n
    # rows B = A, D, and their Wirtinger derivatives d_q B and d_qbar B
    basis = np.array([ground, n * s * q_low1 - 2.0 * qbar * q_n])
    d_q = np.array(
        [n * s * q_low1 - qbar * q_n, n * (n - 1) * s * q_low2 - 3.0 * n * qbar * q_low1]
    )
    d_qbar = np.array([-q_up1, -(n + 2.0) * q_n])
    weight = n + 1.0
    z = np.exp(-1j * theta) * alpha
    r = z - c * ground
    rows = weight * basis.conj()
    g = rows @ r
    dg_dq = (weight * d_qbar.conj()) @ r - c * (rows @ d_q[0])
    dg_dqbar = (weight * d_q.conj()) @ r - c * (rows @ d_qbar[0])
    dg = np.column_stack(
        [-(rows @ ground), -1j * (rows @ z), dg_dq + dg_dqbar, 1j * (dg_dq - dg_dqbar)]
    )
    return np.concatenate([g.real, g.imag]), np.vstack([dg.real, dg.imag])


def decompose(
    alpha: np.ndarray,
    p_init: float,
    seed_frame: ModulationFrame | None = None,
) -> ModulationFrame:
    """Decomposition by Newton iteration on the q-chart root map.

    ``seed_frame`` supplies the starting point (continuation along a
    trajectory); otherwise a coarse orbit-distance scan at ``p_init`` seeds
    (theta, mu).
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    if seed_frame is not None:
        c, theta, p, mu = seed_frame.c, seed_frame.theta_orbit, seed_frame.p, seed_frame.mu
    else:
        scan = orbit_distance(alpha, p_init, s=0.0)
        c, theta, p, mu = 1.0, scan.theta, p_init, scan.mu
    x = np.array([c, theta, p * np.cos(mu), p * np.sin(mu)])

    scale = max(weighted_norm(alpha, 0.5), 1.0)
    history: list[float] = []
    for _ in range(NEWTON_MAX_ITER):
        f_vec, jac = _root_map_and_jacobian(x, alpha)
        res = float(np.linalg.norm(f_vec)) / scale
        history.append(res)
        if res < NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(jac, f_vec)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular root-map Jacobian: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergence("non-finite Newton step")
        x = x - step
        if not np.hypot(x[2], x[3]) < 1.0 or x[0] <= 0.0:
            raise NoConvergence(
                f"Newton iterate left the parameter domain: c={x[0]:.4g}, "
                f"|q|={np.hypot(x[2], x[3]):.4g}"
            )
    else:
        raise NoConvergence(
            f"no convergence after {NEWTON_MAX_ITER} iterations (residual {history[-1]:.3e})"
        )

    c = float(x[0])
    if abs(c - 1.0) > DELTA0:
        raise NoConvergence(f"converged outside the orbit neighborhood: c = {c:.4g}")
    p, mu = float(np.hypot(x[2], x[3])), float(np.arctan2(x[3], x[2]))
    theta = float(x[1]) - mu
    # the remainder in the decomposition convention, a + i b = e^{-i mu n} r
    rotated = np.exp(-1j * (theta + mu * np.arange(1.0, alpha.size + 1))) * alpha
    a = rotated.real - c * ground_amplitudes(p, alpha.size)
    return ModulationFrame(c, p, theta, mu, a, rotated.imag.copy(), residual_history=history)


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
    return _orbit_distance(alpha, p, s)


def _orbit_distance(
    alpha: np.ndarray, p: float, s: float, mu_seed: float | None = None
) -> OrbitDistanceResult:
    """``orbit_distance``, refined from ``mu_seed`` within one grid cell of it
    when given; the scan runs without a seed, or when the refinement ends on
    the edge of the seed's bracket (the maximum lies outside it)."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    n_modes = alpha.size
    n = np.arange(n_modes)
    weights = (n + 1.0) ** (2.0 * s)
    ground = ground_amplitudes(p, n_modes)
    coeffs = weights * np.conj(alpha) * ground

    span = 2.0 * np.pi / (8 * n_modes)
    on_edge = True
    if mu_seed is not None:
        mu_star, on_edge = _refine(coeffs, mu_seed, span)
    if on_edge:
        mu_star, _ = _refine(coeffs, span * int(np.argmax(_coarse_scan(coeffs))), span)
    h_val = np.sum(coeffs * np.exp(1j * mu_star * n))
    theta_star = float(-np.angle(h_val)) if abs(h_val) > 0 else 0.0
    # evaluate the norm directly at the optimum; the expanded form
    # ||alpha||^2 + ||A||^2 - 2|h| loses half the digits to cancellation
    diff = alpha - gauge_apply(ground, theta_star, mu_star)
    return OrbitDistanceResult(weighted_norm(diff, s), theta_star, float(mu_star))


def _refine(coeffs: np.ndarray, mu: float, span: float) -> tuple[float, bool]:
    """Newton on g'(mu) = 0 for g = |h|^2 from mu, kept in [mu - span, mu + span]
    by bisection, and whether it ended on an edge of that bracket.

    Towards a maximum outside the bracket every step bisects to the edge and
    stops when the step, and so the gap left to the edge, falls to 1e-15.
    """
    n = np.arange(coeffs.size)
    lo, hi = mu - span, mu + span
    edges = (lo, hi)
    for _ in range(REFINE_MAX_ITER):
        phase = np.exp(1j * mu * n)
        h0 = np.sum(coeffs * phase)
        h1 = np.sum(coeffs * (1j * n) * phase)
        h2 = np.sum(coeffs * -(n * n) * phase)
        g1 = 2.0 * np.real(np.conj(h0) * h1)
        g2 = 2.0 * np.real(np.conj(h1) * h1 + np.conj(h0) * h2)
        # g is flat (p = 0, alpha = 0) or mu is an exact critical point
        if g1 == 0.0:
            break
        # the maximum lies on the side g rises towards
        if g1 > 0.0:
            lo = mu
        else:
            hi = mu
        # Newton where g is concave and the step stays in the bracket, else bisect
        if g2 < 0.0 and lo < mu - g1 / g2 < hi:
            nxt = mu - g1 / g2
        else:
            nxt = 0.5 * (lo + hi)
        step, mu = nxt - mu, nxt
        if abs(step) <= 1e-15 * max(1.0, abs(mu)):
            break
    gap = min(mu - edges[0], edges[1] - mu)
    return mu, gap <= 2e-15 * max(1.0, abs(mu))


@dataclass
class ModulationTrack:
    """One entry per sample in each field; the field order is the track CSV's column order."""

    times: np.ndarray
    c: np.ndarray
    p: np.ndarray
    theta: np.ndarray
    mu: np.ndarray
    dist_h12: np.ndarray  # ||(c - 1) A(p) + a + i b||_{h^{1/2}}, read off the frame
    dist_h1: np.ndarray  # orbit_distance(state, p, 1), refined from the frame's mu
    constraint_residual: np.ndarray
    newton_iters: np.ndarray  # entries of each frame's residual_history
    energy_budget_error: np.ndarray  # E-expansion identity residual per sample


def track_modulation(traj: TrajectoryRecord, p_init: float) -> ModulationTrack:
    """Decompose each trajectory sample, seeding Newton by continuation.

    A state near the orbit turns like e^{-i lambda t}, lambda = H(alpha(0)) /
    Q(alpha(0)) the frequency ``integrate`` co-rotates with, so each frame is
    seeded with the previous one turned on by -lambda (t_k - t_{k-1}).

    Emits the tracked parameters, orbit distances at the tracked p(t), the
    constraint residual and the higher-charge budget error

        c^2 (1+p^2)/(1-p^2) + ||Ma||^2 + ||Mb||^2 - E(alpha(0)).

    The h^{1/2} distance is read off the frame.  With z = e^{-i(theta_orbit
    + mu n)} alpha = c A(p) + a + i b, the theta- and mu-derivatives of
    ||alpha - e^{i(theta + mu n)} A(p)||^2_{h^{1/2}} at the frame's gauge are
    2 <MA, b> and 2 <M n A, b>, and M A' = M n A / p - 2p/(1 - p^2) M A, so
    the constraints make both vanish (at p = 0, mu does not enter), and the
    second theta-derivative 2 Re<MA, z> = 2c ||A||^2 > 0 makes it a minimum
    along theta.  The distance
    ||(c - 1) A(p) + a + i b|| is summed directly, not as the cancelling
    1 + Q - 2c.

    The h^1 distance is ``orbit_distance``'s refinement started at the
    frame's mu and kept within one grid cell of it, where the h^1 optimum
    lies near the orbit; the grid scan runs only where that refinement ends
    on the cell's edge.  At p ~ 1e-7, where g = |h|^2 is flat to rounding
    over the grid, the scan would land cells away from the optimum.
    """
    e_ref = traj.E[0]
    lam = traj.H[0] / traj.Q[0] if traj.Q[0] > 0 else 0.0
    m_diag = np.arange(1, traj.states.shape[1] + 1, dtype=np.float64)
    rows = []  # one per sample: ModulationTrack's float fields, in order
    iters = []
    prev: ModulationFrame | None = None
    for idx, state in enumerate(traj.states):
        seed = None
        if prev is not None:
            seed = replace(prev, theta=prev.theta - lam * (traj.times[idx] - traj.times[idx - 1]))
        try:
            frame = decompose(state, p_init, seed_frame=seed)
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
        offset = (frame.c - 1.0) * ground_amplitudes(frame.p, m_diag.size) + frame.a + 1j * frame.b
        dist_h1 = _orbit_distance(state, frame.p, 1.0, mu_seed=frame.mu).distance
        dists = (weighted_norm(offset, 0.5), dist_h1)
        residual = np.max(np.abs(frame.constraint_residuals()))
        rows.append((frame.c, frame.p, frame.theta, frame.mu, *dists, residual, e_model - e_ref))
    *columns, budget = np.array(rows).T
    return ModulationTrack(traj.times.copy(), *columns, np.array(iters), budget)
