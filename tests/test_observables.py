"""Conserved quantities: frozen oracle values, fast/naive agreement, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformalflow import observables
from conformalflow.observables import (
    charge,
    energy_fast,
    energy_naive,
    functional_K,
    gap,
    hankel_identity_check,
    higher_charge,
)
from conformalflow.state import ground_amplitudes


def random_state(seed: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_quadratic_charges():
    alpha = np.array([1.0, 2.0, 3.0j])
    assert charge(alpha) == pytest.approx(1 + 8 + 27)
    assert higher_charge(alpha) == pytest.approx(1 + 16 + 81)


def test_energy_two_mode_frozen():
    # alpha = (1, 1): H = 7 by direct enumeration of the quartets
    assert energy_naive(np.array([1.0, 1.0])) == pytest.approx(7.0)
    assert energy_fast(np.array([1.0, 1.0])) == pytest.approx(7.0)
    assert gap(np.array([1.0, 1.0, 0.0])) == pytest.approx(2.0)


def test_energy_single_mode():
    # c delta_{n,m}: only the diagonal quartet survives, H = (m+1)|c|^4
    for m, c in ((0, 1.0), (2, 1.5), (5, 0.5 + 0.5j)):
        alpha = np.zeros(8, dtype=complex)
        alpha[m] = c
        assert energy_fast(alpha) == pytest.approx((m + 1) * abs(c) ** 4, rel=1e-14)
        assert energy_naive(alpha) == pytest.approx((m + 1) * abs(c) ** 4, rel=1e-14)


@pytest.mark.parametrize("seed,n", [(0, 3), (1, 8), (2, 17), (3, 33)])
def test_fast_matches_naive(seed, n):
    alpha = random_state(seed, n)
    want = energy_naive(alpha)
    assert energy_fast(alpha) == pytest.approx(want, rel=1e-12)


def test_energy_gauge_invariance():
    from conformalflow.state import gauge_apply

    alpha = random_state(5, 20)
    rotated = gauge_apply(alpha, 0.9, 2.1)
    assert energy_fast(rotated) == pytest.approx(energy_fast(alpha), rel=1e-12)
    assert charge(rotated) == pytest.approx(charge(alpha), rel=1e-13)


def test_gap_nonnegative_random():
    for seed in range(30):
        assert gap(random_state(seed, 24)) >= -1e-10


def test_gap_vanishes_on_geometric():
    # alpha_n = c p^n saturates H = Q^2
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(key=100 + seed))
        p = 0.75 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        c = rng.standard_normal() + 1j * rng.standard_normal()
        alpha = c * p ** np.arange(180)
        q = charge(alpha)
        assert abs(gap(alpha)) <= 1e-12 * q * q


def test_ground_state_unit_energy():
    # H(A(p)) = Q(A(p)) = 1 up to the truncation tail
    for p in (0.2, 0.5):
        alpha = ground_amplitudes(p, 200).astype(complex)
        assert charge(alpha) == pytest.approx(1.0, abs=1e-12)
        assert energy_fast(alpha) == pytest.approx(1.0, abs=1e-11)


def test_functional_K_definition():
    alpha = random_state(6, 10)
    assert functional_K(alpha, 1.3) == pytest.approx(
        0.5 * energy_fast(alpha) - 1.3 * charge(alpha), rel=1e-13
    )


def test_energy_naive_raises_on_forced_imaginary(monkeypatch):
    # a state cannot trigger this; exercise the guard via the tolerance constant
    alpha = random_state(8, 12)
    energy_naive(alpha)  # fine at the default tolerance
    monkeypatch.setattr(observables, "IMAG_TOL", 0.0)
    with pytest.raises(ArithmeticError):
        energy_naive(alpha)


def test_hankel_identity_frozen():
    lhs, rhs = hankel_identity_check(np.array([1.0, 0.0, 0.0, 1.0]))
    assert lhs == pytest.approx(4.0)
    assert rhs == pytest.approx(4.0)
    lhs, rhs = hankel_identity_check(np.array([1.0, 1.0, 1.0]))
    assert lhs == pytest.approx(0.0, abs=1e-13)
    assert rhs == 0.0


def test_hankel_identity_rejects_non_palindrome():
    with pytest.raises(ValueError):
        hankel_identity_check(np.array([1.0, 2.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**31),
)
def test_hankel_identity_property(half_len, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    half = rng.standard_normal(half_len) + 1j * rng.standard_normal(half_len)
    odd = bool(rng.integers(2))
    middle = [] if odd else [rng.standard_normal() + 1j * rng.standard_normal()]
    x = np.concatenate([half, middle, half[::-1]])
    lhs, rhs = hankel_identity_check(x)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-11 * scale
    assert rhs >= -1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=2**31))
def test_energy_agreement_property(n, seed):
    alpha = random_state(seed, n)
    assert energy_fast(alpha) == pytest.approx(energy_naive(alpha), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_stacked_energy_matches_naive_row_by_row(n):
    stack = np.array([random_state(200 + 10 * n + row, n) for row in range(5)])
    got = energy_fast(stack)
    assert got.shape == (5,)
    for value, alpha in zip(got, stack):
        assert value == pytest.approx(energy_naive(alpha), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
def test_stacked_energy_agreement_property(n, rows, seed):
    stack = np.array([random_state(seed + row, n) for row in range(rows)])
    want = [energy_naive(alpha) for alpha in stack]
    np.testing.assert_allclose(energy_fast(stack), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 7, 33, 160])
def test_stacked_energy_rows_are_independent(n):
    # a row's energy is bitwise the same alone, in any stack, in any position
    stack = np.array([random_state(300 + row, n) for row in range(9)])
    full = energy_fast(stack)
    alone = np.array([energy_fast(alpha) for alpha in stack])
    np.testing.assert_array_equal(full, alone)
    np.testing.assert_array_equal(energy_fast(stack[3:7]), full[3:7])
    np.testing.assert_array_equal(energy_fast(stack[::-2]), full[::-2])
    grid = energy_fast(stack[:8].reshape(2, 4, n))
    np.testing.assert_array_equal(grid, full[:8].reshape(2, 4))


def test_stacked_quantities_shapes_and_types():
    empty = np.zeros((0, 6), dtype=complex)
    for fn in (energy_fast, charge, higher_charge, gap):
        out = fn(empty)
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        assert type(fn(random_state(9, 6))) is float
    stack = np.array([random_state(10 + row, 6) for row in range(3)])
    for fn in (energy_fast, charge, higher_charge, gap):
        np.testing.assert_array_equal(fn(stack), [fn(alpha) for alpha in stack])
