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
    "linearized_rhs",
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


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 1.0
    t_end: float = 10.0
    sample_dt: float = 0.1
    #: cross-check the fast field against the cubic oracle every this many
    #: accepted steps; applied only at N <= 48, disabled when None
    oracle_check_stride: int | None = 100
    oracle_check_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_step", "t_end", "sample_dt", "oracle_check_tol"):
            value = getattr(self, name)
            # NaN fails both comparisons; a NaN tolerance would stall the step
            # control, and a NaN oracle tolerance would never fire
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        stride = self.oracle_check_stride
        if stride is not None and not (isinstance(stride, (int, np.integer)) and stride >= 1):
            raise ValueError(f"oracle_check_stride must be None or an integer >= 1, got {stride}")
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
    with np.errstate(over="ignore", invalid="ignore"):
        solver = DOP853(
            rhs, 0.0, y, cfg.t_end, max_step=cfg.max_step, rtol=cfg.rel_tol, atol=cfg.abs_tol
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
            if cfg.oracle_check_stride and n_modes <= 48 and accepted % cfg.oracle_check_stride == 0:
                _oracle_check(solver.y, cfg.oracle_check_tol)
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
    )


def _oracle_check(y: np.ndarray, tol: float) -> None:
    fast = vector_field_fast(y)
    naive = vector_field_naive(y)
    scale = max(weighted_norm(naive, 1.0), 1e-300)
    rel = weighted_norm(fast - naive, 1.0) / scale
    if rel > tol:
        raise FlowError(f"fast/naive vector-field mismatch: rel err {rel:.3e}")


def linearized_rhs(
    a: np.ndarray, b: np.ndarray, ops: "OperatorPair"  # noqa: F821
) -> tuple[np.ndarray, np.ndarray]:
    """Linearized evolution M da/dt = L_- b, M db/dt = -L_+ a around ops.about."""
    minv = 1.0 / ops.M
    return minv * (ops.Lminus @ b), -minv * (ops.Lplus @ a)
