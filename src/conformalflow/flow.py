"""Conformal-flow vector field and adaptive DOP853 integration.

The evolution equation is d alpha / dt = -i F(alpha) with

    [F(alpha)]_n = (1/(n+1)) sum_{j,k} S(n,j,k,n+j-k) conj(alpha_j) alpha_k alpha_{n+j-k}.

``vector_field_fast`` evaluates F in O(N^2): it divides ``kernel.weighted_field``
by n + 1, which walks the layered pair sums in blocks of ``kernel.SCAN_CHUNK``
layers, one GEMM a block, and contracts each block of the layer-cumulative
table H[a, j] = D[a, a+j] as it is made, so no N x N table is formed.
``vector_field_naive`` is the cubic oracle.

``integrate`` runs one DOP853 stepper (Hairer-Norsett-Wanner, Solving ODEs I,
II.10; ``_DOP853`` at the end of this module) straight to t_end in the
co-rotating frame beta = exp(i lambda t) alpha, lambda = H(alpha_0)/Q(alpha_0),
where

    d beta / dt = -i (F(beta) - lambda beta)

by the gauge covariance F(exp(i theta) alpha) = exp(i theta) F(alpha).  A
standing wave of frequency lambda, such as the normalised ground state A(p)
with lambda = 1, is a fixed point there, so the steps follow only the motion
off the orbit.  Samples inside a step come from the stepper's dense output, a
sample on a step end is the step's state, and each is mapped back exactly by
alpha = exp(-i lambda t) beta.

One field evaluation at alpha_0 serves twice: it gives H(alpha_0) =
Re <alpha_0, (n+1) F(alpha_0)> and so lambda, and the stepper's first
derivative f_0 = rhs(alpha_0), formed the same way and so bitwise the same.
At every step end ``integrate`` checks the O(N) conserved charges Q and E
(equal in both frames) against their initial values and raises ``FlowError``
past ``CONSERVATION_TOL``; after the run it takes H, Q and E of all samples
after t = 0 in one stacked call each.

The stepper is numpy only, so neither importing the package nor integrating
loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .kernel import weighted_field
from .observables import charge, energy_fast, higher_charge

__all__ = [
    "vector_field_naive",
    "vector_field_fast",
    "IntegratorConfig",
    "TrajectoryRecord",
    "integrate",
    "FlowError",
]


class FlowError(ArithmeticError):
    """Numerical failure during integration (NaN state, failed step, conservation drift)."""


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
#: smallest rel_tol DOP853 honours: below 100 eps the error estimate is mostly
#: rounding (scipy's DOP853 raises a lower rel_tol to this floor)
MIN_REL_TOL = 100 * np.finfo(float).eps
#: absolute tolerance of DOP853; states of order one make rel_tol the binding one
ABS_TOL = 1e-12
#: unbounded steps fail the invariant-manifold oracle (1.46e-11 > 1e-12 + p^N at N = 512)
MAX_STEP = 1.0
#: largest relative drift of Q or E at a step end.  Worst measured at rel_tol
#: 1e-10: 8.5e-13 on the acceptance runs, 1.8e-15 on the invariant-manifold
#: oracle, 5.2e-11 over the whole suite (a random N = 16 state).  That state
#: drifts by about rel_tol, 5.8e-7 at rel_tol 1e-6, so a far-from-ground run
#: at rel_tol >= 1e-6 may trip it; near A(p) drift stays below 1e-12
CONSERVATION_TOL = 1e-6


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    t_end: float = 10.0
    sample_dt: float = 0.5

    def __post_init__(self) -> None:
        for name in ("rel_tol", "t_end", "sample_dt"):
            value = getattr(self, name)
            # NaN fails both comparisons; a NaN tolerance would stall the step control
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # at rel_tol >= 1 the error control rejects no step and only MAX_STEP sets h
        if not MIN_REL_TOL <= self.rel_tol < 1:
            raise ValueError(f"rel_tol must lie in [{MIN_REL_TOL:.3g}, 1), got {self.rel_tol}")
        # every sample state is kept, so the sample count bounds the memory
        if round(self.t_end / self.sample_dt) > MAX_SAMPLES:
            raise ValueError(
                f"t_end / sample_dt = {self.t_end / self.sample_dt:.3g} samples; at most {MAX_SAMPLES}"
            )


@dataclass
class TrajectoryRecord:
    """The sampled series, then the run's counters; a record built from the
    series alone holds the counters of a run that took no step."""

    times: np.ndarray
    states: np.ndarray  # shape (n_samples, N)
    H: np.ndarray
    Q: np.ndarray
    E: np.ndarray
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0  # field evaluations of the stepper, dense output included
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
        """The counters, every field after the five series, for summaries and metadata."""
        return {f.name: getattr(self, f.name) for f in fields(self)[5:]}


def integrate(alpha0: np.ndarray, cfg: IntegratorConfig) -> TrajectoryRecord:
    """Integrate d alpha/dt = -i F(alpha) to cfg.t_end with samples at sample_dt.

    H(alpha_0) and lambda come from the field evaluation that starts the
    stepper; ``energy_fast`` runs once, on the stack of later samples.
    The flow is time-reversible: t -> conj(alpha(T - t)) solves it too, so a
    backward run is a forward run from the conjugated end state.
    """
    y = np.asarray(alpha0, dtype=np.complex128).copy()
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"the initial state must be a non-empty 1-D vector, got shape {y.shape}")
    if not np.all(np.isfinite(y.view(np.float64))):
        raise FlowError("initial state contains NaN/Inf")
    # the stepper's first field evaluation gives H = Re<alpha, (n+1) F(alpha)> too
    field0 = weighted_field(y)
    energy0, charge0, higher0 = np.vdot(y, field0).real, charge(y), higher_charge(y)
    # the zero state has no frequency; any lambda leaves it fixed
    lam = energy0 / charge0 if charge0 > 0 else 0.0

    def rhs(beta: np.ndarray) -> np.ndarray:
        return -1j * (vector_field_fast(beta) - lam * beta)

    # rhs(y), bitwise: vector_field_fast divides weighted_field the same way
    f0 = -1j * (field0 / np.arange(1, y.size + 1, dtype=np.float64) - lam * y)

    n_samples = int(round(cfg.t_end / cfg.sample_dt))
    times = [0.0] + [min((i + 1) * cfg.sample_dt, cfg.t_end) for i in range(n_samples)]
    if times[-1] < cfg.t_end:
        times.append(cfg.t_end)

    states = [y]
    nxt = 1  # index of the next sample time
    h_min, h_max = math.inf, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        solver = _DOP853(rhs, y, f0, cfg.t_end, cfg.rel_tol)
        while solver.t < cfg.t_end:
            solver.step()
            h = float(solver.h)
            h_min, h_max = min(h_min, h), max(h_max, h)
            t = solver.t
            _conservation_check(solver.y, t, charge0, higher0)
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
    states = np.array(states) * np.exp(-1j * lam * times)[:, None]
    later = states[1:]
    return TrajectoryRecord(
        times=times,
        states=states,
        H=np.append(energy0, energy_fast(later)),
        Q=np.append(charge0, charge(later)),
        E=np.append(higher0, higher_charge(later)),
        accepted=solver.accepted,
        rejected=solver.rejected,
        rhs_evals=solver.nfev,
        h_min=h_min,
        h_max=h_max,
    )


def _conservation_check(y: np.ndarray, t: float, charge0: float, higher0: float) -> None:
    """Raise FlowError when Q or E at y has drifted past CONSERVATION_TOL."""
    for name, value, ref in (("Q", charge(y), charge0), ("E", higher_charge(y), higher0)):
        drift = abs(value - ref) / max(ref, 1e-300)
        # a NaN drift fails too
        if not drift <= CONSERVATION_TOL:
            raise FlowError(f"{name} drifted by {drift:.3e} (relative) at t = {t:.6g}")


# ---------------------------------------------------------------- DOP853
#
# Ported from scipy.integrate (``_ivp/rk.py``, ``_ivp/common.py`` and
# ``_ivp/dop853_coefficients.py``, BSD-3-Clause, Copyright (c) SciPy
# Developers), which follows Hairer's Fortran DOP853.  Only what ``integrate``
# drives is kept: forward steps of an autonomous field on a complex state, the
# default first step, and the dense output.  The arrays and the numpy calls
# are scipy's, in scipy's order, so every step and every sample is bitwise
# the same as scipy's DOP853 with the same settings.

#: step-size control: safety factor and the largest shrink and growth per step
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10

# Runge-Kutta matrix: rows 1-11 are the stages, row 12 the 8th-order weights
# B, rows 13-15 the three extra stages of the dense output
_A = np.zeros((16, 16))
_A[1, :1] = [0.05260015195876773]
_A[2, :2] = [0.0197250569845379, 0.0591751709536137]
_A[3, :3] = [0.02958758547680685, 0, 0.08876275643042054]
_A[4, :4] = [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792]
_A[5, :5] = [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242]
_A[6, :6] = [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125]
_A[7, :7] = [
    0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023
]
_A[8, :8] = [
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996
]
_A[9, :9] = [
    0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627
]
_A[10, :10] = [
    -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196
]
_A[11, :11] = [
    2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636
]
_A[12, :12] = [
    0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259
]
_A[13, :13] = [
    0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
    -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298
]
_A[14, :14] = [
    0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
    -0.00034046500868740456, 0.1413124436746325
]
_A[15, :15] = [
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987
]
_B = _A[12, :12]
# weights of the 5th- and 3rd-order error estimates over the 13 stages K
_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0
])
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0
])
# the last four of the seven interpolant coefficients from the 16 stages
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


class _DOP853:
    """DOP853 from t = 0 towards t_bound for the autonomous field fun(y),
    given f = fun(y) at the start.

    ``step`` takes one accepted step and raises FlowError when none can be
    taken; ``t``, ``y`` and ``h`` are the step's end, state and size.  The
    counters are the accepted steps, the rejected attempts and the field
    evaluations, the caller's f and the dense output included.
    """

    def __init__(self, fun, y: np.ndarray, f: np.ndarray, t_bound: float, rtol: float) -> None:
        self.fun, self.t_bound, self.rtol = fun, t_bound, rtol
        self.accepted, self.rejected, self.nfev = 0, 0, 1  # nfev counts the caller's f
        self.t, self.y, self.f = 0.0, y, f
        self.K = np.empty((16, y.size), dtype=y.dtype)
        # the first step (Hairer I, II.4) for an error estimate of order 7
        scale = ABS_TOL + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(self.f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
        d2 = _rms((self._eval(y + h0 * self.f) - self.f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        self.h_abs = min(100 * h0, h1, t_bound, MAX_STEP)

    def _eval(self, y: np.ndarray) -> np.ndarray:
        self.nfev += 1
        return self.fun(y)

    def _fail(self, message: str) -> FlowError:
        return FlowError(f"DOP853 failed at t = {self.t:.6g}: {message}")

    def step(self) -> None:
        t, y, K = self.t, self.y, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if self.h_abs > MAX_STEP:
            h_abs = MAX_STEP
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        rejected = False
        while True:
            if h_abs < min_step:
                raise self._fail("Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = self.f
            for s in range(1, 12):
                K[s] = self._eval(y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = self._eval(y_new)
            K[12] = f_new
            # Hairer's estimate: the RMS 5th-order error times err5 / hypot(err5, err3 / 10)
            scale = ABS_TOL + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            err5_norm_2 = np.linalg.norm(np.dot(K[:13].T, _E5) / scale) ** 2
            err3_norm_2 = np.linalg.norm(np.dot(K[:13].T, _E3) / scale) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))
            # states stay near the size of the initial one (Q is conserved), so
            # no smaller step recovers from a NaN or infinite estimate
            if not math.isfinite(error_norm):
                raise self._fail("non-finite error estimate")
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else SAFETY * error_norm**-0.125
                # no growth right after a rejection
                h_abs *= min(1 if rejected else MAX_FACTOR, factor)
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**-0.125)
            rejected = True
            self.rejected += 1
        self.accepted += 1
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f, self.h, self.h_abs = t_new, y_new, f_new, h, h_abs

    def dense_output(self):
        """The interpolant over the last step, for 3 more field evaluations."""
        K, h, t_old, y_old = self.K, self.h, self.t_old, self.y_old
        for s in range(13, 16):
            K[s] = self._eval(y_old + np.dot(K[:s].T, _A[s, :s]) * h)
        F = np.empty((7, y_old.size), dtype=y_old.dtype)
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (self.f + K[0])
        F[3:] = h * np.dot(_D, K)

        def interpolate(t: float) -> np.ndarray:
            x = (t - t_old) / h
            out = np.zeros_like(y_old)
            for i, coeff in enumerate(reversed(F)):
                out += coeff
                out *= x if i % 2 == 0 else 1 - x
            out += y_old
            return out

        return interpolate
