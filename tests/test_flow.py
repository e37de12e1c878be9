"""Vector field oracle agreement and integrator behavior."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conformalflow import flow
from conformalflow.flow import (
    FlowError,
    IntegratorConfig,
    TrajectoryRecord,
    integrate,
    vector_field_fast,
    vector_field_naive,
)
from conformalflow.lab import PerturbationSpec, generate_perturbation
from conformalflow.linearized import build_ground_ops
from conformalflow.observables import charge
from conformalflow.state import gauge_apply, ground_amplitudes


def random_state(seed: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_single_mode_field():
    # c delta_{n,m}: F_n = |c|^2 c delta_{n,m} (standing wave with lambda = |c|^2)
    alpha = np.zeros(6, dtype=complex)
    alpha[2] = 1.5 + 0.5j
    want = np.zeros(6, dtype=complex)
    want[2] = abs(alpha[2]) ** 2 * alpha[2]
    np.testing.assert_allclose(vector_field_naive(alpha), want, atol=1e-14)
    np.testing.assert_allclose(vector_field_fast(alpha), want, atol=1e-14)


def test_ground_state_is_stationary():
    # F(A(p)) = A(p) up to the truncation tail
    ground = ground_amplitudes(0.4, 120).astype(complex)
    field = vector_field_fast(ground)
    np.testing.assert_allclose(field, ground, atol=1e-12)


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 7), (2, 16), (3, 31)])
def test_fast_matches_naive(seed, n):
    alpha = random_state(seed, n)
    fast = vector_field_fast(alpha)
    naive = vector_field_naive(alpha)
    scale = np.max(np.abs(naive))
    np.testing.assert_allclose(fast, naive, atol=1e-12 * scale)


def test_field_gauge_equivariance():
    alpha = random_state(9, 18)
    rotated = gauge_apply(alpha, 0.3, 1.1)
    want = gauge_apply(vector_field_fast(alpha), 0.3, 1.1)
    np.testing.assert_allclose(vector_field_fast(rotated), want, rtol=1e-11)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_field_gauge_covariance_property(n, seed, theta, mu):
    # F(e^{i theta + i mu n} alpha) = e^{i theta + i mu n} F(alpha): the
    # co-rotating frame rests on it
    alpha = random_state(seed, n)
    phase = np.exp(1j * (theta + mu * np.arange(n)))
    got = vector_field_fast(phase * alpha)
    want = phase * vector_field_fast(alpha)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_field_scaling_cubic():
    alpha = random_state(10, 12)
    np.testing.assert_allclose(
        vector_field_fast(2.0 * alpha), 8.0 * vector_field_fast(alpha), rtol=1e-12
    )


def test_integrator_config_validation():
    for override in (
        {"rel_tol": -1.0},
        {"t_end": 0.0},
        {"rel_tol": np.nan},
        {"t_end": np.inf},
        {"sample_dt": -np.inf},
        {"t_end": 1e9, "sample_dt": 0.5},
        # below DOP853's floor of 100 eps the error estimate is rounding
        {"rel_tol": 1e-20},
        {"rel_tol": 0.5 * flow.MIN_REL_TOL},
        # the error control would accept every step; only MAX_STEP would bound h
        {"rel_tol": 1.0},
        {"rel_tol": 1e300},
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**override)
    # the edges that stay valid
    IntegratorConfig(t_end=flow.MAX_SAMPLES * 0.5, sample_dt=0.5)
    IntegratorConfig(rel_tol=flow.MIN_REL_TOL)
    IntegratorConfig(rel_tol=np.nextafter(1.0, 0.0))


def test_integrate_rejects_nan_input():
    bad = np.array([1.0, np.nan], dtype=complex)
    with pytest.raises(FlowError):
        integrate(bad, IntegratorConfig(t_end=1.0, sample_dt=0.5))


@pytest.mark.parametrize("state", [np.zeros(0), np.ones((2, 8))], ids=["empty", "2-D"])
def test_integrate_rejects_non_vector_input(state):
    # refused before any energy is taken, with the shape in the message
    with pytest.raises(ValueError, match=re.escape(f"shape {state.shape}")):
        integrate(state, IntegratorConfig(t_end=1.0, sample_dt=0.5))


def test_single_mode_phase_rotation():
    # exact solution: alpha(t) = e^{-i |c|^2 t} alpha(0)
    alpha0 = np.zeros(8, dtype=complex)
    alpha0[1] = 1.2
    cfg = IntegratorConfig(t_end=5.0, sample_dt=1.0)
    traj = integrate(alpha0, cfg)
    for t, state in zip(traj.times, traj.states):
        want = np.exp(-1j * 1.44 * t) * alpha0
        np.testing.assert_allclose(state, want, atol=1e-9)


def test_zero_state_stays_zero():
    # Q = 0 gives lambda = 0, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(np.zeros(8), IntegratorConfig())
    assert not np.any(traj.states)
    assert traj.times.size == 21


def test_conservation_short_run():
    alpha0 = random_state(21, 24)
    alpha0 *= np.sqrt(1.0 / charge(alpha0))
    traj = integrate(alpha0, IntegratorConfig(t_end=10.0, sample_dt=1.0))
    drift = traj.max_relative_drift()
    assert drift["H"] <= 1e-9
    assert drift["Q"] <= 1e-9
    assert drift["E"] <= 1e-9
    assert traj.times.size == 11
    assert traj.accepted > 0


def test_backward_integration_returns():
    # time reversal: t -> conj(alpha(T - t)) solves the flow too
    alpha0 = 0.3 * random_state(22, 16)
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.5)
    fwd = integrate(alpha0, cfg)
    back = integrate(np.conj(fwd.states[-1]), cfg)
    np.testing.assert_allclose(np.conj(back.states[-1]), alpha0, atol=1e-9)


def test_telemetry_is_the_counters_after_the_series():
    # a record of the series alone holds the counters of a run that took no step
    record = TrajectoryRecord(*[np.empty(0)] * 5)
    telemetry = record.telemetry()
    assert list(telemetry) == ["accepted", "rejected", "rhs_evals", "h_min", "h_max"]
    assert [telemetry[k] for k in ("accepted", "rejected", "rhs_evals")] == [0] * 3
    assert all(math.isnan(telemetry[k]) for k in ("h_min", "h_max"))


def test_nan_mid_run_raises(monkeypatch):
    correct = flow.vector_field_fast
    calls = []

    def poisoned(alpha):
        calls.append(None)
        return correct(alpha) * (np.nan if len(calls) > 40 else 1.0)

    monkeypatch.setattr(flow, "vector_field_fast", poisoned)
    with pytest.raises(FlowError, match="DOP853 failed at t = .*: non-finite error estimate"):
        integrate(0.3 * random_state(27, 12), IntegratorConfig(t_end=2.0, sample_dt=0.5))
    # the attempt that met the NaN ends, and no smaller step is tried
    assert len(calls) - 41 <= 12


def test_step_counts_are_exact(monkeypatch):
    # every field evaluation, the one integrate makes for H and lambda included,
    # is a vector_field_fast call
    correct = flow.vector_field_fast
    calls, dense_steps = [], []
    monkeypatch.setattr(flow, "vector_field_fast", lambda a: calls.append(None) or correct(a))
    dense_output = flow._DOP853.dense_output

    def counting_dense_output(self):
        dense_steps.append(self.t)
        return dense_output(self)

    monkeypatch.setattr(flow._DOP853, "dense_output", counting_dense_output)
    cfg = IntegratorConfig(t_end=0.5, sample_dt=0.25)
    traj = integrate(random_state(29, 16), cfg)
    assert traj.rejected > 0
    # t = 0.25 falls strictly inside one step; t = 0.5 is the last step end
    assert len(dense_steps) == 1
    # one stepper for the whole run: the initial field (also H(alpha_0)), one
    # probe to choose the first step, 12 per attempted step, and DOP853's 3
    # extra dense-output stages once per step that interpolates a sample
    assert len(calls) == 2 + 12 * (traj.accepted + traj.rejected) + 3 * len(dense_steps)
    assert traj.rhs_evals == len(calls)
    assert 0 < traj.h_min <= traj.h_max <= flow.MAX_STEP


def test_dop853_coefficients_are_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert np.array_equal(flow._A, ref.A)
    assert np.array_equal(flow._B, ref.B)
    assert np.array_equal(flow._E3, ref.E3)
    assert np.array_equal(flow._E5, ref.E5)
    assert np.array_equal(flow._D, ref.D)


class ScipyDOP853:
    """scipy's DOP853 behind the stepper interface ``integrate`` drives; it
    evaluates the initial field itself and counts it, so f is unused."""

    def __init__(self, fun, y, f, t_bound, rtol):
        self.solver = scipy.integrate.DOP853(
            lambda t, y: fun(y), 0.0, y, t_bound, max_step=flow.MAX_STEP, rtol=rtol, atol=flow.ABS_TOL
        )
        self.accepted = self.rejected = 0

    def step(self):
        nfev = self.solver.nfev
        message = self.solver.step()
        if self.solver.status == "failed":
            raise FlowError(f"DOP853 failed at t = {self.solver.t:.6g}: {message}")
        self.accepted += 1
        # every attempt, accepted or not, costs 12 evaluations
        self.rejected += (self.solver.nfev - nfev) // 12 - 1

    @property
    def h(self):
        return self.solver.step_size

    def __getattr__(self, name):  # t, y, nfev, dense_output
        return getattr(self.solver, name)


def _lab_state(p0, delta, seed, n):
    base = ground_amplitudes(p0, n).astype(np.complex128)
    return base + generate_perturbation(PerturbationSpec(delta=delta), seed, n)


#: the "dense" case of test_stepper_is_bitwise_scipys: at rel_tol 1e-6 its
#: samples drift past CONSERVATION_TOL (Q: 1.28e-6 at t = 2.3, 4.4e-6 at t = 2.6)
DENSE_CASE = (0.3 * random_state(5, 12), IntegratorConfig(rel_tol=1e-6, t_end=3.0, sample_dt=0.1))


@pytest.mark.parametrize(
    "alpha0, cfg, conservation_tol",
    [
        # rejected steps, a sample inside a step and one on the last step end
        (random_state(29, 16), IntegratorConfig(t_end=0.5, sample_dt=0.25), None),
        # many samples inside each step, at a loose tolerance; the guard is
        # raised above its sample drift, since this case pins the stepper
        (*DENSE_CASE, 1e-5),
        # near A(p), as simulate and the track workload run
        (_lab_state(0.5, 1e-3, 20170623, 128), IntegratorConfig(t_end=1.0, sample_dt=0.1), None),
        (_lab_state(0.3, 1e-4, 1608072270, 48), IntegratorConfig(t_end=10.0, sample_dt=0.5), None),
        # the exact fixed point A(0) (--p0 0 --delta 0): zero field, first step 1e-6
        (_lab_state(0.0, 0.0, 1, 64), IntegratorConfig(t_end=1.0, sample_dt=0.25), None),
    ],
    ids=["rejections", "dense", "track-like", "drift-like", "fixed-point"],
)
def test_stepper_is_bitwise_scipys(monkeypatch, alpha0, cfg, conservation_tol):
    if conservation_tol is not None:
        monkeypatch.setattr(flow, "CONSERVATION_TOL", conservation_tol)
    ours = integrate(alpha0, cfg)
    monkeypatch.setattr(flow, "_DOP853", ScipyDOP853)
    theirs = integrate(alpha0, cfg)
    assert np.array_equal(ours.states, theirs.states)
    counters = ("accepted", "rejected", "rhs_evals", "h_min", "h_max")
    assert [getattr(ours, k) for k in counters] == [getattr(theirs, k) for k in counters]


def test_fixed_point_steps_from_1e_6():
    # A(0) is exactly fixed in the co-rotating frame: the field and every error
    # estimate vanish, so the first step is 1e-6 and each next one ten times longer
    alpha0 = _lab_state(0.0, 0.0, 1, 64)
    assert not np.any(flow.vector_field_fast(alpha0) - alpha0)
    traj = integrate(alpha0, IntegratorConfig(t_end=1.0, sample_dt=0.25))
    assert (traj.h_min, traj.rejected, traj.accepted) == (1e-6, 0, 7)


def test_samples_hit_t_end_exactly():
    traj = integrate(random_state(25, 8), IntegratorConfig(t_end=1.3, sample_dt=0.4))
    assert traj.times[-1] == pytest.approx(1.3, abs=1e-15)


def test_linearized_rhs_matches_full_flow():
    # d/dt(a, b) from the full field around A(p) agrees with M^-1 L-+ to O(eps)
    p, n_modes, eps = 0.45, 160, 1e-6
    ops = build_ground_ops(p, n_modes)
    ground = ground_amplitudes(p, n_modes)
    rng = np.random.Generator(np.random.Philox(key=31))
    a = rng.standard_normal(n_modes) * 0.8 ** np.arange(n_modes)
    b = rng.standard_normal(n_modes) * 0.8 ** np.arange(n_modes)
    # linearized evolution M da/dt = L- b, M db/dt = -L+ a
    minv = 1.0 / ops.M
    da, db = minv * (ops.Lminus @ b), -minv * (ops.Lplus @ a)

    # full flow in the rotating frame: d beta/dt = -i(F(beta) - beta)
    beta = ground + eps * (a + 1j * b)
    dbeta = -1j * (vector_field_fast(beta) - beta)
    np.testing.assert_allclose(dbeta.real / eps, da, atol=3e-5)
    np.testing.assert_allclose(dbeta.imag / eps, db, atol=3e-5)


def test_integrate_takes_energies_in_one_stacked_call(monkeypatch):
    # H(alpha_0) comes with the first field evaluation; one stacked call for
    # every later sample
    correct = flow.energy_fast
    shapes = []
    monkeypatch.setattr(flow, "energy_fast", lambda a: shapes.append(np.shape(a)) or correct(a))
    alpha0 = random_state(32, 12)
    traj = integrate(alpha0, IntegratorConfig(t_end=2.0, sample_dt=0.25))
    assert shapes == [(8, 12)]
    np.testing.assert_array_equal(traj.H[1:], [correct(state) for state in traj.states[1:]])
    weighted = np.arange(1, alpha0.size + 1) * alpha0
    assert traj.H[0] == np.vdot(weighted, vector_field_fast(alpha0)).real
    assert traj.H[0] == pytest.approx(correct(alpha0), rel=1e-15, abs=0)


def test_stepper_starts_from_rhs_of_the_initial_state(monkeypatch):
    # the f integrate hands the stepper is rhs(alpha_0), bitwise
    starts = []

    class Recording(flow._DOP853):
        def __init__(self, fun, y, f, t_bound, rtol):
            starts.append((fun, y.copy(), f.copy()))
            super().__init__(fun, y, f, t_bound, rtol)

    monkeypatch.setattr(flow, "_DOP853", Recording)
    for alpha0 in (_lab_state(0.5, 1e-3, 20170623, 128), 0.3 * random_state(5, 12)):
        integrate(alpha0, IntegratorConfig(t_end=0.5, sample_dt=0.25))
        fun, y, f = starts.pop()
        assert np.array_equal(y, alpha0)
        assert np.array_equal(f, fun(y))


def test_conservation_guard_trips_on_damping(monkeypatch):
    # d beta/dt gains -gamma beta: Q and E decay like exp(-2 gamma t)
    correct = flow.vector_field_fast
    monkeypatch.setattr(flow, "vector_field_fast", lambda a: correct(a) - 1e-5j * a)
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.5)
    with pytest.raises(FlowError, match="Q drifted"):
        integrate(0.3 * random_state(33, 12), cfg)
    # a damping too weak to pass CONSERVATION_TOL by t_end runs through
    monkeypatch.setattr(flow, "vector_field_fast", lambda a: correct(a) - 1e-9j * a)
    traj = integrate(0.3 * random_state(33, 12), cfg)
    assert 1e-9 < traj.max_relative_drift()["Q"] < flow.CONSERVATION_TOL


def test_conservation_guard_judges_the_samples():
    # every step end of the dense case stays within CONSERVATION_TOL (worst Q
    # drift 5.0e-7), but a dense-output sample between two of them does not
    with pytest.raises(FlowError, match=r"^Q drifted by 1\.282e-06 \(relative\) at t = 2\.3$"):
        integrate(*DENSE_CASE)
