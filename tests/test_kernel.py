"""Layer-cumulative pair-sum table H[a, j] = D[a, a+j] against the brute-force
definitions and the earlier formulation (layered table C, then a cumsum and a gather)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformalflow.flow import vector_field_fast
from conformalflow.kernel import layer_cumulative_sums
from conformalflow.observables import energy_fast


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


def cumulative_oracle(alpha: np.ndarray) -> np.ndarray:
    """H[a, j] = D[a, a+j] = sum_k (min(a, k, s-k) + 1) alpha_k alpha_{s-k} at s = a + j,
    for j >= a, term by term; zero below the diagonal."""
    n = alpha.size
    table = np.zeros((n, n), dtype=np.complex128)
    for a in range(n):
        for j in range(a, n):
            s = a + j
            for k in range(max(0, s - n + 1), min(s, n - 1) + 1):
                table[a, j] += (min(a, k, s - k) + 1) * alpha[k] * alpha[s - k]
    return table


def shifted(wide: np.ndarray) -> np.ndarray:
    """Read an (N, 2N - 1) table D[a, s] through the shift H[a, j] = D[a, a+j], j >= a."""
    n = wide.shape[0]
    table = np.zeros((n, n), dtype=wide.dtype)
    for a in range(n):
        table[a, a:] = wide[a, 2 * a : a + n]
    return table


def row_copy_build(alpha: np.ndarray) -> np.ndarray:
    """The earlier layered table C: copy each row, update a fancy-indexed range, zero its head."""
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


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 2), (2, 5), (3, 12), (4, 24)])
def test_table_matches_oracle(seed, n):
    # includes the last column H[a, N-1], which the layer walk does not reach
    alpha = random_state(seed, n)
    got = layer_cumulative_sums(alpha)
    want = cumulative_oracle(alpha)
    assert got.shape == want.shape == (n, n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))))


@pytest.mark.parametrize("n", [1, 2, 3, 48, 512])
def test_table_equals_row_copy_build(n):
    # a cumsum of the earlier layered table C, read through the shift
    alpha = random_state(40 + n, n)
    reference = shifted(np.cumsum(row_copy_build(alpha), axis=0))
    np.testing.assert_allclose(
        layer_cumulative_sums(alpha), reference, rtol=0, atol=1e-13 * np.max(np.abs(reference))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 48, 512])
def test_field_equals_prefix_gather(n):
    # the earlier vector field: cumsum of C, gather D[min(n,j), n+j], contract
    alpha = random_state(60 + n, n)
    idx = np.arange(n)
    prefix = np.cumsum(row_copy_build(alpha), axis=0)
    gathered = prefix[np.minimum.outer(idx, idx), np.add.outer(idx, idx)]
    want = gathered @ np.conj(alpha) / np.arange(1, n + 1, dtype=np.float64)
    np.testing.assert_allclose(
        vector_field_fast(alpha), want, rtol=0, atol=1e-13 * np.max(np.abs(want))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 48, 512])
def test_energy_matches_layer_square_sum(n):
    # the table-free walk against H = sum_{l,s} |C_l(s)|^2 of the earlier layered table C
    alpha = random_state(80 + n, n)
    want = float(np.sum(np.abs(row_copy_build(alpha)) ** 2))
    assert energy_fast(alpha) == pytest.approx(want, rel=1e-13, abs=0)


def test_row_zero_is_self_convolution():
    alpha = random_state(7, 9)
    table = layer_cumulative_sums(alpha)
    np.testing.assert_allclose(table[0], np.convolve(alpha, alpha)[:9], rtol=1e-14)


def test_triangular_support():
    table = layer_cumulative_sums(random_state(11, 8))
    assert table.shape == (8, 8)
    assert np.all(np.tril(table, -1) == 0.0)


def test_prefix_sums_are_cumulative():
    # D[a, s] - D[a-1, s] = C_a(s) on s >= 2a, i.e. H[a, j] - H[a-1, j+1] = C_a(a+j)
    alpha = random_state(5, 7)
    n = alpha.size
    table = layer_cumulative_sums(alpha)
    layers = pair_sums_oracle(alpha)
    for a in range(1, n):
        np.testing.assert_allclose(
            table[a, a : n - 1] - table[a - 1, a + 1 :],
            layers[a, 2 * a : a + n - 1],
            rtol=0,
            atol=1e-13,
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_table_oracle_property(n, seed):
    alpha = random_state(seed, n)
    got = layer_cumulative_sums(alpha)
    want = cumulative_oracle(alpha)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(want))))
