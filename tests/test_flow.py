"""Vector field oracle agreement and integrator behavior."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformalflow import flow
from conformalflow.flow import (
    FlowError,
    IntegratorConfig,
    integrate,
    vector_field_fast,
    vector_field_naive,
)
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
    # co-rotating frame and the inline oracle both rest on it
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
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**override)
    # the edge that stays valid
    IntegratorConfig(t_end=flow.MAX_SAMPLES * 0.5, sample_dt=0.5)


def test_integrate_rejects_nan_input():
    bad = np.array([1.0, np.nan], dtype=complex)
    with pytest.raises(FlowError):
        integrate(bad, IntegratorConfig(t_end=1.0, sample_dt=0.5))


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
    assert traj.times.size == 101


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
    alpha0 = 0.3 * random_state(22, 16)
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.5)
    fwd = integrate(alpha0, cfg)
    back = integrate(fwd.states[-1], cfg, backward=True)
    np.testing.assert_allclose(back.states[-1], alpha0, atol=1e-9)


def test_oracle_check_runs_inline(monkeypatch):
    monkeypatch.setattr(flow, "ORACLE_CHECK_STRIDE", 5)
    alpha0 = random_state(24, 12)
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)
    traj = integrate(alpha0, cfg)  # raises FlowError on any fast/naive mismatch
    assert traj.accepted >= 5
    assert traj.oracle_checks == traj.accepted // 5
    assert traj.oracle_max_rel_err <= 1e-10
    telemetry = traj.telemetry()
    assert telemetry["oracle_checks"] == traj.oracle_checks
    assert telemetry["oracle_max_rel_err"] == traj.oracle_max_rel_err


def test_oracle_check_catches_wrong_field(monkeypatch):
    correct = flow.vector_field_fast
    monkeypatch.setattr(flow, "vector_field_fast", lambda a: 1.001 * correct(a))
    monkeypatch.setattr(flow, "ORACLE_CHECK_STRIDE", 1)
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)
    with pytest.raises(FlowError, match="mismatch"):
        integrate(0.3 * random_state(26, 12), cfg)


def test_nan_mid_run_raises(monkeypatch):
    correct = flow.vector_field_fast
    calls = []

    def poisoned(alpha):
        calls.append(None)
        return correct(alpha) * (np.nan if len(calls) > 40 else 1.0)

    monkeypatch.setattr(flow, "vector_field_fast", poisoned)
    with pytest.raises(FlowError, match="DOP853 failed"):
        integrate(0.3 * random_state(27, 12), IntegratorConfig(t_end=2.0, sample_dt=0.5))


def test_step_counts_are_exact(monkeypatch):
    correct = flow.vector_field_fast
    calls, dense_steps = [], []
    monkeypatch.setattr(flow, "vector_field_fast", lambda a: calls.append(None) or correct(a))

    class CountingDOP853(flow.DOP853):
        def dense_output(self):
            dense_steps.append(self.t)
            return super().dense_output()

    monkeypatch.setattr(flow, "DOP853", CountingDOP853)
    cfg = IntegratorConfig(t_end=0.5, sample_dt=0.25)
    traj = integrate(random_state(29, 16), cfg)
    assert traj.rejected > 0
    # an inline oracle check would add field evaluations to the count below
    assert traj.oracle_checks == 0
    # t = 0.25 falls strictly inside one step; t = 0.5 is the last step end
    assert len(dense_steps) == 1
    # one solver for the whole run: the initial field, one probe to choose the
    # first step, 12 per attempted step, and DOP853's 3 extra dense-output
    # stages once per step that interpolates a sample
    assert len(calls) == 2 + 12 * (traj.accepted + traj.rejected) + 3 * len(dense_steps)
    assert traj.rhs_evals == len(calls)
    assert 0 < traj.h_min <= traj.h_max <= flow.MAX_STEP


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
