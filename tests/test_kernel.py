"""The blocked layer walk behind the fast field: the layer-cumulative table
H[a, j] = D[a, a+j], assembled from the walk's blocks, against the brute-force
definitions and the earlier formulation (layered table C, then a cumsum and a
gather); the field across block boundaries, its SU(1,1) equivariance beyond the
cubic oracle's reach, and the walk's memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformalflow import kernel
from conformalflow.flow import vector_field_fast, vector_field_naive
from conformalflow.kernel import SCAN_CHUNK, _layer_blocks, weighted_field
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


def assembled_table(alpha: np.ndarray) -> np.ndarray:
    """H assembled from the walk's blocks; each block is copied before the next is made."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    n = alpha.size
    table = np.full((n, n), np.nan, dtype=np.complex128)
    for a0, block in _layer_blocks(alpha):
        table[a0 : a0 + block.shape[0], a0:] = block
    return np.triu(table)


def random_state(seed: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize(
    "seed,n", [(0, 1), (1, 2), (2, 5), (3, 12), (4, 24), (5, SCAN_CHUNK + 2), (6, 2 * SCAN_CHUNK + 3)]
)
def test_table_matches_oracle(seed, n):
    # the whole table: row 0, the last column H[a, N-1] and the block boundaries
    alpha = random_state(seed, n)
    got = assembled_table(alpha)
    want = cumulative_oracle(alpha)
    assert got.shape == want.shape == (n, n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))))


@pytest.mark.parametrize("n", [1, 2, 3, 48, 512])
def test_table_equals_row_copy_build(n):
    # a cumsum of the earlier layered table C, read through the shift
    alpha = random_state(40 + n, n)
    reference = shifted(np.cumsum(row_copy_build(alpha), axis=0))
    np.testing.assert_allclose(
        assembled_table(alpha), reference, rtol=0, atol=1e-13 * np.max(np.abs(reference))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 48, 512, 1024])
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
    table = assembled_table(alpha)
    np.testing.assert_allclose(table[0], np.convolve(alpha, alpha)[:9], rtol=1e-14)


def test_triangular_support():
    # the walk zeroes each block's j < a corner
    for n in (8, 2 * SCAN_CHUNK + 3):
        for a0, block in _layer_blocks(random_state(11, n)):
            assert np.all(np.tril(block, -1) == 0.0)


def test_prefix_sums_are_cumulative():
    # D[a, s] - D[a-1, s] = C_a(s) on s >= 2a, i.e. H[a, j] - H[a-1, j+1] = C_a(a+j)
    alpha = random_state(5, 7)
    n = alpha.size
    table = assembled_table(alpha)
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
    got = assembled_table(alpha)
    want = cumulative_oracle(alpha)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(want))))


def block_boundary_sizes() -> list[int]:
    # every N up to two full blocks and a short third, then N = b k +- 1 further out
    far = {SCAN_CHUNK * k + d for k in (3, 4) for d in (-1, 1)}
    return sorted(set(range(1, 2 * SCAN_CHUNK + 4)) | far)


@pytest.mark.parametrize("n", block_boundary_sizes())
def test_field_matches_naive_across_block_boundaries(n):
    alpha = random_state(100 + n, n)
    naive = vector_field_naive(alpha)
    np.testing.assert_allclose(
        vector_field_fast(alpha), naive, rtol=0, atol=1e-13 * np.max(np.abs(naive))
    )


def su11_generator(alpha: np.ndarray) -> np.ndarray:
    """(X alpha)_n = -(i/2) (n alpha_{n-1} + (n+2) alpha_{n+1}), the raising plus lowering
    generator of the SU(1,1) symmetry of the conformal flow (anti-Hermitian in the
    weighted inner product sum (n+1) conj(u_n) v_n)."""
    n = np.arange(alpha.size)
    out = np.zeros_like(alpha)
    out[1:] += n[1:] * alpha[:-1]
    out[:-1] += (n[:-1] + 2) * alpha[1:]
    return -0.5j * out


@pytest.mark.parametrize("n", [128, 512, 1024])
def test_field_is_su11_equivariant(n):
    # F(exp(tX) alpha) = exp(tX) F(alpha) differentiated at t = 0: DF(alpha)[X alpha] = X F(alpha).
    # F is cubic, F(alpha + v) = F(alpha) + DF[v] + (quadratic in v) + F(v), so
    # DF[v] = (F(alpha + v) - F(alpha - v)) / 2 - F(v) exactly.  Support below N/3 keeps
    # X alpha, F and X F inside the truncation, where the identity holds exactly;
    # v = eps X alpha with |v| = |alpha| keeps the polarization well conditioned
    rng = np.random.Generator(np.random.Philox(key=n))
    support = -(-n // 3) - 1
    alpha = np.zeros(n, dtype=np.complex128)
    alpha[:support] = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    direction = su11_generator(alpha)
    eps = np.linalg.norm(alpha) / np.linalg.norm(direction)
    v = eps * direction
    field = vector_field_fast
    derivative = ((field(alpha + v) - field(alpha - v)) / 2 - field(v)) / eps
    want = su11_generator(field(alpha))
    np.testing.assert_allclose(derivative, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("n", [SCAN_CHUNK + 2, 2 * SCAN_CHUNK + 3, 512, 599, 1024])
def test_split_block_gemm_matches_the_whole_one(monkeypatch, n):
    # the rows k < SCAN_CHUNK / 2 of a split block drop only exact zero weights:
    # every entry agrees to rounding (bitwise at most sizes; at a few, such as
    # N = 599, one entry of a decaying state can move by one rounding)
    alpha = random_state(120 + n, n) * 0.95 ** np.arange(n)
    monkeypatch.setattr(kernel, "_SPLIT_MIN_WIDTH", 0)
    split = weighted_field(alpha)
    monkeypatch.setattr(kernel, "_SPLIT_MIN_WIDTH", 2 * n + SCAN_CHUNK)
    whole = weighted_field(alpha)
    np.testing.assert_allclose(split, whole, rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", [512, 2048])
def test_walk_memory_is_blocks_not_a_table(n):
    # O(SCAN_CHUNK N), about 0.7 MiB at N = 512, where the N x N table took 4 MiB
    alpha = random_state(3, n)
    weighted_field(alpha)
    tracemalloc.start()
    try:
        weighted_field(alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * (SCAN_CHUNK + 2) * n
    assert peak < n * n * 16 / 4
