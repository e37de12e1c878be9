"""Conformal-flow vector field and adaptive DOP853 integration.

The evolution equation is d alpha / dt = -i F(alpha) with

    [F(alpha)]_n = (1/(n+1)) sum_{j,k} S(n,j,k,n+j-k) conj(alpha_j) alpha_k alpha_{n+j-k}.

``vector_field_fast`` evaluates F in O(N^2): it divides
``kernel.weighted_field``, the contraction of the layer-cumulative pair-sum
table D, by n + 1.  ``vector_field_naive`` is the cubic oracle.

``integrate`` runs one scipy DOP853 solver (Hairer-Norsett-Wanner, Solving
ODEs I, II.10) straight to t_end in the co-rotating frame
beta = exp(i lambda t) alpha, lambda = H(alpha_0)/Q(alpha_0), where

    d beta / dt = -i (F(beta) - lambda beta)

by the gauge covariance F(exp(i theta) alpha) = exp(i theta) F(alpha).  A
standing wave of frequency lambda, such as the normalised ground state A(p)
with lambda = 1, is a fixed point there, so the steps follow only the motion
off the orbit.  Samples inside a step come from the solver's dense output, a
sample on a step end is the step's state, and each is mapped back exactly by
alpha = exp(-i lambda t) beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

from .kernel import weighted_field
from .observables import charge, energy_fast, higher_charge
from .state import weighted_norm

__all__ = [
    "vector_field_naive",
    "vector_field_fast",
    "IntegratorConfig",
    "TrajectoryRecord",
    "integrate",
    "FlowError",
]


class FlowError(RuntimeError):
    """Numerical failure during integration (NaN state, failed step, oracle mismatch)."""


def vector_field_naive(alpha: np.ndarray) -> np.ndarray:
    """Direct O(N^3) evaluation of F(alpha) from the quadruple-sum definition."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    n_modes = alpha.size
    out = np.zeros(n_modes, dtype=np.complex128)
    for n in range(n_modes):
        acc = 0.0 + 0.0j
        for j in range(n_modes):
            s = n + j
            k = np.arange(max(0, s - n_modes + 1), min(s, n_modes - 1) + 1)
            m = s - k
            coeff = np.minimum(np.minimum(k, m), min(n, j)) + 1
            acc += np.conj(alpha[j]) * np.sum(coeff * alpha[k] * alpha[m])
        out[n] = acc / (n + 1.0)
    return out


def vector_field_fast(alpha: np.ndarray) -> np.ndarray:
    """O(N^2) evaluation: F_n = weighted_field(alpha)_n / (n+1)."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    return weighted_field(alpha) / np.arange(1, alpha.size + 1, dtype=np.float64)


#: most samples one run may record (t_end / sample_dt); each keeps a full state
MAX_SAMPLES = 10**6
#: absolute tolerance of DOP853; states of order one make rel_tol the binding one
ABS_TOL = 1e-12
#: unbounded steps fail the invariant-manifold oracle (1.46e-11 > 1e-12 + p^N at N = 512)
MAX_STEP = 1.0
#: cross-check the fast field against the cubic oracle every this many
#: accepted steps, at N <= ORACLE_MAX_MODES only (a check costs O(N^3))
ORACLE_CHECK_STRIDE = 100
ORACLE_MAX_MODES = 48
#: largest relative h^1 mismatch of fast and naive field the check accepts
ORACLE_CHECK_TOL = 1e-10


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    t_end: float = 10.0
    sample_dt: float = 0.1

    def __post_init__(self) -> None:
        for name in ("rel_tol", "t_end", "sample_dt"):
            value = getattr(self, name)
            # NaN fails both comparisons; a NaN tolerance would stall the step control
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # every sample state is kept, so the sample count bounds the memory
        if round(self.t_end / self.sample_dt) > MAX_SAMPLES:
            raise ValueError(
                f"t_end / sample_dt = {self.t_end / self.sample_dt:.3g} samples; at most {MAX_SAMPLES}"
            )


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    states: np.ndarray  # shape (n_samples, N)
    H: np.ndarray
    Q: np.ndarray
    E: np.ndarray
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0  # field evaluations of the solver, dense output included
    h_min: float = math.nan  # smallest and largest accepted step
    h_max: float = math.nan
    oracle_checks: int = 0  # inline fast/naive field checks run
    oracle_max_rel_err: float = math.nan  # worst of them; NaN when none ran

    def max_relative_drift(self) -> dict[str, float]:
        out = {}
        for name, series in (("H", self.H), ("Q", self.Q), ("E", self.E)):
            ref = series[0]
            scale = max(abs(ref), 1e-300)
            out[name] = float(np.max(np.abs(series - ref)) / scale)
        return out

    def telemetry(self) -> dict[str, float]:
        """Step and evaluation counters of the run, for summaries and metadata."""
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "rhs_evals": self.rhs_evals,
            "h_min": self.h_min,
            "h_max": self.h_max,
            "oracle_checks": self.oracle_checks,
            "oracle_max_rel_err": self.oracle_max_rel_err,
        }


def integrate(
    alpha0: np.ndarray,
    cfg: IntegratorConfig,
    backward: bool = False,
) -> TrajectoryRecord:
    """Integrate d alpha/dt = -i F(alpha) to cfg.t_end with samples at sample_dt.

    ``backward`` negates the vector field (time-reversed run over [0, t_end]).
    """
    y = np.asarray(alpha0, dtype=np.complex128).copy()
    if not np.all(np.isfinite(y.view(np.float64))):
        raise FlowError("initial state contains NaN/Inf")
    n_modes = y.size
    sign = 1.0 if not backward else -1.0
    energy0, charge0 = energy_fast(y), charge(y)
    # the zero state has no frequency; any lambda leaves it fixed
    lam = energy0 / charge0 if charge0 > 0 else 0.0

    def rhs(t: float, beta: np.ndarray) -> np.ndarray:
        return sign * (-1j) * (vector_field_fast(beta) - lam * beta)

    n_samples = int(round(cfg.t_end / cfg.sample_dt))
    times = [0.0] + [min((i + 1) * cfg.sample_dt, cfg.t_end) for i in range(n_samples)]
    if times[-1] < cfg.t_end:
        times.append(cfg.t_end)

    states = [y]
    nxt = 1  # index of the next sample time
    accepted = rejected = 0
    h_min, h_max = math.inf, 0.0
    oracle_errs = []
    with np.errstate(over="ignore", invalid="ignore"):
        solver = DOP853(
            rhs, 0.0, y, cfg.t_end, max_step=MAX_STEP, rtol=cfg.rel_tol, atol=ABS_TOL
        )
        while solver.status == "running":
            nfev = solver.nfev
            message = solver.step()
            if solver.status == "failed":
                raise FlowError(f"DOP853 failed at t = {solver.t:.6g}: {message}")
            accepted += 1
            # every attempt, accepted or not, costs n_stages (12) evaluations
            rejected += (solver.nfev - nfev) // solver.n_stages - 1
            h = float(solver.step_size)
            h_min, h_max = min(h_min, h), max(h_max, h)
            if n_modes <= ORACLE_MAX_MODES and accepted % ORACLE_CHECK_STRIDE == 0:
                oracle_errs.append(_oracle_check(solver.y))
            t = solver.t
            if times[nxt] < t:
                # the interpolant costs 3 more evaluations; build it only when needed
                dense = solver.dense_output()
                while times[nxt] < t:
                    states.append(dense(times[nxt]))
                    nxt += 1
            if times[nxt] == t:
                states.append(solver.y)
                nxt += 1

    times = np.array(times)
    states = np.array(states) * np.exp(-1j * sign * lam * times)[:, None]
    cons = np.array(
        [(energy0, charge0, higher_charge(y))]
        + [(energy_fast(s), charge(s), higher_charge(s)) for s in states[1:]]
    )
    return TrajectoryRecord(
        times=times,
        states=states,
        H=cons[:, 0],
        Q=cons[:, 1],
        E=cons[:, 2],
        accepted=accepted,
        rejected=rejected,
        rhs_evals=solver.nfev,
        h_min=h_min,
        h_max=h_max,
        oracle_checks=len(oracle_errs),
        oracle_max_rel_err=max(oracle_errs, default=math.nan),
    )


def _oracle_check(y: np.ndarray) -> float:
    """Relative h^1 mismatch of the fast field against the cubic oracle at y."""
    fast = vector_field_fast(y)
    naive = vector_field_naive(y)
    scale = max(weighted_norm(naive, 1.0), 1e-300)
    rel = weighted_norm(fast - naive, 1.0) / scale
    # a NaN mismatch fails too
    if not rel <= ORACLE_CHECK_TOL:
        raise FlowError(f"fast/naive vector-field mismatch: rel err {rel:.3e}")
    return rel
