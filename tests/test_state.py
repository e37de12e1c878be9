"""Reference states, gauge actions, closed-form derivatives."""

import numpy as np
import pytest

from conformalflow.state import (
    GroundState,
    SingleMode,
    gauge_apply,
    ground_amplitudes,
    ground_derivative,
    ground_second_derivative,
    weighted_norm,
)


def test_weighted_norm_values():
    alpha = np.array([1.0, 1.0])
    assert weighted_norm(alpha, 0.0) == pytest.approx(np.sqrt(2.0))
    assert weighted_norm(alpha, 0.5) == pytest.approx(np.sqrt(3.0))
    assert weighted_norm(alpha, 1.0) == pytest.approx(np.sqrt(5.0))


def test_gauge_preserves_moduli():
    rng = np.random.Generator(np.random.Philox(key=3))
    alpha = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    rotated = gauge_apply(alpha, 0.7, -1.3)
    np.testing.assert_allclose(np.abs(rotated), np.abs(alpha), rtol=1e-14)
    # group law in each parameter
    twice = gauge_apply(gauge_apply(alpha, 0.2, 0.5), 0.3, 0.1)
    np.testing.assert_allclose(twice, gauge_apply(alpha, 0.5, 0.6), rtol=1e-13)


def test_ground_amplitudes_closed_form():
    ground = ground_amplitudes(0.5, 5)
    np.testing.assert_allclose(ground, 0.75 * 0.5 ** np.arange(5), rtol=1e-15)
    # unit charge in the untruncated limit
    n = np.arange(4000)
    full = ground_amplitudes(0.9, 4000)
    assert np.sum((n + 1) * full**2) == pytest.approx(1.0, abs=1e-12)


def test_ground_h1_mass_closed_form():
    # sum (n+1)^2 A_n^2 = (1+p^2)/(1-p^2)
    for p in (0.2, 0.5, 0.8):
        n_modes = 6000
        full = ground_amplitudes(p, n_modes)
        mass = weighted_norm(full, 1.0) ** 2
        assert mass == pytest.approx((1 + p * p) / (1 - p * p), rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.45, 0.8])
def test_ground_derivative_matches_finite_difference(p):
    h = 1e-6
    n_modes = 40
    fd = (ground_amplitudes(p + h, n_modes) - ground_amplitudes(max(p - h, 0.0), n_modes)) / (
        (p + h) - max(p - h, 0.0)
    )
    atol = 2e-6 if p == 0.0 else 5e-9  # one-sided stencil at the boundary
    np.testing.assert_allclose(ground_derivative(p, n_modes), fd, atol=atol)


def test_ground_derivative_regular_at_zero():
    d = ground_derivative(0.0, 6)
    np.testing.assert_array_equal(d, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("p", [0.0, 0.3, 0.7])
def test_ground_second_derivative_matches_finite_difference(p):
    h = 1e-4
    n_modes = 30
    if p == 0.0:
        fd = (
            ground_amplitudes(2 * h, n_modes)
            - 2 * ground_amplitudes(h, n_modes)
            + ground_amplitudes(0.0, n_modes)
        ) / h**2
        atol = 1e-2  # one-sided stencil, first-order accurate
    else:
        fd = (
            ground_amplitudes(p + h, n_modes)
            - 2 * ground_amplitudes(p, n_modes)
            + ground_amplitudes(p - h, n_modes)
        ) / h**2
        atol = 1e-5
    np.testing.assert_allclose(ground_second_derivative(p, n_modes), fd, atol=atol)


def test_reference_dataclasses():
    assert GroundState(0.4).p == 0.4
    assert SingleMode(2, 1.5) == SingleMode(2, 1.5)
    with pytest.raises(ValueError):
        GroundState(1.0)
    with pytest.raises(ValueError):
        SingleMode(-1)
