"""Layered pair-sum table against the brute-force definition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformalflow.kernel import layer_prefix_sums, layered_pair_sums


def pair_sums_oracle(alpha: np.ndarray) -> np.ndarray:
    """C[l, s] = sum_{k=l}^{s-l} alpha_k alpha_{s-k}, term by term."""
    n = alpha.size
    table = np.zeros((n, 2 * n - 1), dtype=np.complex128)
    for l in range(n):
        for s in range(2 * n - 1):
            for k in range(l, s - l + 1):
                if k < n and 0 <= s - k < n:
                    table[l, s] += alpha[k] * alpha[s - k]
    return table


def row_copy_build(alpha: np.ndarray) -> np.ndarray:
    """The earlier table build: copy each row, update a fancy-indexed range, zero its head."""
    n = alpha.size
    width = 2 * n - 1
    table = np.zeros((n, width), dtype=np.complex128)
    table[0] = np.convolve(alpha, alpha)
    s = np.arange(width)
    for l in range(n - 1):
        row = table[l].copy()
        lo = 2 * (l + 1)
        hi = min(width - 1, n - 1 + l)
        if hi >= lo:
            sel = s[lo : hi + 1]
            row[sel] -= 2.0 * alpha[l] * alpha[sel - l]
        row[:lo] = 0.0
        table[l + 1] = row
    return table


def random_state(seed: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 2), (2, 5), (3, 12)])
def test_table_matches_oracle(seed, n):
    alpha = random_state(seed, n)
    got = layered_pair_sums(alpha)
    want = pair_sums_oracle(alpha)
    assert got.shape == want.shape == (n, 2 * n - 1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))))


@pytest.mark.parametrize("n", [1, 2, 3, 48, 512])
def test_table_equals_row_copy_build(n):
    # the slice build does the same arithmetic in the same order: bitwise equal
    alpha = random_state(40 + n, n)
    assert np.array_equal(layered_pair_sums(alpha), row_copy_build(alpha))


def test_row_zero_is_self_convolution():
    alpha = random_state(7, 9)
    table = layered_pair_sums(alpha)
    np.testing.assert_allclose(table[0], np.convolve(alpha, alpha), rtol=1e-14)


def test_triangular_support():
    table = layered_pair_sums(random_state(11, 8))
    for l in range(table.shape[0]):
        assert np.all(table[l, : 2 * l] == 0.0)


def test_prefix_sums_are_cumulative():
    table = layered_pair_sums(random_state(5, 7))
    prefix = layer_prefix_sums(table)
    np.testing.assert_allclose(prefix[3], table[:4].sum(axis=0), rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_table_oracle_property(n, seed):
    alpha = random_state(seed, n)
    got = layered_pair_sums(alpha)
    want = pair_sums_oracle(alpha)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(want))))
