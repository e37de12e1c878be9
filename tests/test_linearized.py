"""Second-variation operators: entries, spectra, ladders, identities."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conformalflow.lab import main
from conformalflow.linearized import (
    MAX_IDENTITY_ORDER,
    OperatorPair,
    appendix_identities,
    build_ground_ops,
    build_single_mode_ops,
    coercivity,
    commutators,
    ladder_check,
    mode_energy_relation,
    mu_ladder,
    spectrum,
    stability_spectrum,
    toeplitz_core,
)
from conformalflow.observables import functional_K
from conformalflow.state import ground_amplitudes, ground_derivative

#: for tests that build short truncations on purpose
short_truncation = pytest.mark.filterwarnings("ignore:truncation tail:UserWarning")


@short_truncation
def test_ground_entries_closed_form():
    # L+-(p)_{nj} = 2p^{|n-j|} - 2p^{n+j+2} +- (1-p^2)^2 (n+1)(j+1) p^{n+j}
    #             - (n+1) delta_{nj}
    p = 0.5
    ops = build_ground_ops(p, 16)
    for n, j in ((0, 0), (1, 3), (4, 4), (7, 2)):
        base = 2 * p ** abs(n - j) - 2 * p ** (n + j + 2)
        weighted = (1 - p * p) ** 2 * (n + 1) * (j + 1) * p ** (n + j)
        diag = (n + 1.0) if n == j else 0.0
        assert ops.Lplus[n, j] == pytest.approx(base + weighted - diag, rel=1e-14)
        assert ops.Lminus[n, j] == pytest.approx(base - weighted - diag, rel=1e-14)
    # frozen corner value: p = 0.5, n = j = 0
    assert ops.Lplus[0, 0] == pytest.approx(2 - 2 * 0.25 + 0.5625 - 1)


def test_p_zero_operators_are_diagonal():
    ops = build_ground_ops(0.0, 8)
    np.testing.assert_allclose(ops.Lplus, np.diag([2.0, 0, -1, -2, -3, -4, -5, -6]))
    np.testing.assert_allclose(ops.Lminus, np.diag([0.0, 0, -1, -2, -3, -4, -5, -6]))


@short_truncation
def test_operators_symmetric():
    ops = build_ground_ops(0.6, 64)
    np.testing.assert_allclose(ops.Lplus, ops.Lplus.T, atol=1e-15)
    np.testing.assert_allclose(ops.Lminus, ops.Lminus.T, atol=1e-15)


def test_quadratic_form_expands_K():
    # K(A + eps(a+ib)) - K(A) = eps^2 (<L+ a, a> + <L- b, b>) + O(eps^3)
    p, n_modes = 0.5, 200
    ops = build_ground_ops(p, n_modes)
    ground = ground_amplitudes(p, n_modes)
    rng = np.random.Generator(np.random.Philox(key=12))
    a = rng.standard_normal(n_modes) * 0.85 ** np.arange(n_modes)
    b = rng.standard_normal(n_modes) * 0.85 ** np.arange(n_modes)
    k0 = functional_K(ground.astype(complex), 1.0)
    quad = a @ ops.Lplus @ a + b @ ops.Lminus @ b
    residuals = []
    for eps in (1e-2, 5e-3):
        dk = functional_K(ground + eps * a + 1j * eps * b, 1.0) - k0
        residuals.append(abs(dk - eps * eps * quad))
    assert residuals[0] / residuals[1] >= 7.0  # cubic remainder


def test_kernel_identities():
    # L- A = 0, L- MA = 0, L+ A' = 0, L+ A = 2 MA
    p, n_modes = 0.55, 220
    ops = build_ground_ops(p, n_modes)
    ground = ground_amplitudes(p, n_modes)
    dground = ground_derivative(p, n_modes)
    weighted = ops.M * ground
    assert np.max(np.abs(ops.Lminus @ ground)) <= 1e-12
    assert np.max(np.abs(ops.Lminus @ weighted)) <= 1e-10
    assert np.max(np.abs(ops.Lplus @ dground)) <= 1e-10
    np.testing.assert_allclose(ops.Lplus @ ground, 2.0 * weighted, atol=1e-12)


def test_positive_eigenvector_of_Lplus():
    # L+ MA = lambda* MA with lambda* = 2(1+p^2)/(1-p^2)
    p, n_modes = 0.45, 200
    ops = build_ground_ops(p, n_modes)
    weighted = ops.M * ground_amplitudes(p, n_modes)
    lam = 2 * (1 + p * p) / (1 - p * p)
    np.testing.assert_allclose(ops.Lplus @ weighted, lam * weighted, atol=1e-10)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6])
def test_ground_spectra_integer_ladder(p):
    ops = build_ground_ops(p, 128)
    minus = spectrum(ops.Lminus)[:12]
    plus = spectrum(ops.Lplus)[:12]
    lam = 2 * (1 + p * p) / (1 - p * p)
    np.testing.assert_allclose(minus, [0, 0] + [-m for m in range(1, 11)], atol=1e-6)
    np.testing.assert_allclose(plus, [lam, 0] + [-m for m in range(1, 11)], atol=1e-6)


@short_truncation
@pytest.mark.parametrize("n_modes", [16, 128, 512])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.6])
def test_spectrum_subset_matches_full_solve(p, n_modes):
    # the top-count solve returns the leading count of the full solve
    ops = build_ground_ops(p, n_modes)
    for mat in (ops.Lplus, ops.Lminus):
        full = spectrum(mat)
        scale = max(float(np.max(np.abs(full))), 1.0)
        for count in (1, 12, n_modes):
            top = spectrum(mat, count)
            assert top.shape == (count,)
            np.testing.assert_allclose(top, full[:count], rtol=0, atol=1e-12 * scale)
        for count in (0, n_modes + 1):
            with pytest.raises(ValueError):
                spectrum(mat, count)


def test_spectrum_residual_contract(monkeypatch, capsys):
    # eigenvalues shifted off their eigenvectors break the contract, and the
    # CLI reports it as a numerical failure
    eigh = scipy.linalg.eigh

    def shifted(*args, **kwargs):
        vals, vecs = eigh(*args, **kwargs)
        return vals + 1e-3, vecs

    monkeypatch.setattr(scipy.linalg, "eigh", shifted)
    with pytest.raises(ArithmeticError, match="residual contract"):
        spectrum(build_ground_ops(0.3, 128).Lplus)
    assert main(["spectrum"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6])
def test_ground_stability_frequencies(p):
    ops = build_ground_ops(p, 128)
    report = stability_spectrum(ops)
    assert not report.unstable
    want = np.array([(m - 1) / (m + 1) for m in range(2, 11)])
    got = np.sort(report.omegas)[: want.size]
    np.testing.assert_allclose(got, np.sort(want), atol=1e-6)
    assert report.zero_geometric == 3
    assert report.jordan_partners == 1


def test_ground_frequencies_p_independent():
    grids = []
    for p in (0.0, 0.3, 0.6):
        report = stability_spectrum(build_ground_ops(p, 128))
        grids.append(np.sort(report.omegas)[:9])
    assert np.max(np.abs(grids[0] - grids[1])) <= 1e-6
    assert np.max(np.abs(grids[0] - grids[2])) <= 1e-6


#: every operator the spectrum suite builds, with the solve it must take:
#: L- <= 0 for the ground state and the lowest single mode, indefinite above
SUITE_OPERATORS = {
    "ground-0.0": (lambda n: build_ground_ops(0.0, n), "definite"),
    "ground-0.3": (lambda n: build_ground_ops(0.3, n), "definite"),
    "ground-0.6": (lambda n: build_ground_ops(0.6, n), "definite"),
    "mode-0": (lambda n: build_single_mode_ops(0, 1.0, n), "definite"),
    "mode-1": (lambda n: build_single_mode_ops(1, 1.0, n), "general"),
    "mode-2": (lambda n: build_single_mode_ops(2, 1.0, n), "general"),
}


def _assert_matches_eigvals(report, ops):
    # oracle: the nonsymmetric eigenvalues of P = M^-1 L- M^-1 L+ itself
    minv = 1.0 / ops.M
    want = np.sort_complex(np.linalg.eigvals((minv[:, None] * ops.Lminus) @ (minv[:, None] * ops.Lplus)))
    got = np.sort_complex(report.p_eigenvalues)
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), 1.0)
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


@short_truncation
@pytest.mark.parametrize("n_modes", [16, 128, 512])
@pytest.mark.parametrize("name", list(SUITE_OPERATORS))
def test_stability_reduction_matches_eigvals(name, n_modes):
    build, reduction = SUITE_OPERATORS[name]
    ops = build(n_modes)
    report = stability_spectrum(ops)
    assert report.reduction == reduction
    _assert_matches_eigvals(report, ops)
    if reduction == "general":
        return
    assert report.p_eigenvalues.dtype == np.float64
    # the whole pivoted Cholesky factor of A = -L-, not only the trailing
    # block that stability_spectrum certifies, reproduces A
    a_mat = -ops.Lminus
    factor, piv, rank, info = scipy.linalg.lapack.dpstrf(a_mat, lower=1)
    assert info >= 0
    lead = np.tril(factor)[:, :rank]
    piv = piv - 1
    residual = a_mat[np.ix_(piv, piv)] - lead @ lead.T
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(a_mat)


@short_truncation
@pytest.mark.parametrize("n_modes", [16, 128])
@pytest.mark.parametrize("bump", [0.5, 1e-3])
def test_stability_indefinite_minus_falls_back(bump, n_modes):
    # a positive rank-one bump along the kernel vector A(p) makes L- indefinite;
    # the large one shows on the diagonal, the small one only in the trailing
    # block of the pivoted Cholesky factor
    ops = build_ground_ops(0.3, n_modes)
    ground = ground_amplitudes(0.3, n_modes)
    bumped = OperatorPair(ops.Lplus, ops.Lminus + bump * np.outer(ground, ground), ops.M, ops.p)
    assert np.any(np.diag(bumped.Lminus) > 0) == (bump == 0.5)
    report = stability_spectrum(bumped)
    assert report.reduction == "general"
    _assert_matches_eigvals(report, bumped)


def test_single_mode_zero_structure():
    # N_mode = 0 at c = 1: L+ = diag(2, 0, -1, ...), L- = diag(0, 0, -1, ...)
    ops = build_single_mode_ops(0, 1.0, 8)
    np.testing.assert_allclose(ops.Lplus, np.diag([2.0, 0, -1, -2, -3, -4, -5, -6]))
    np.testing.assert_allclose(ops.Lminus, np.diag([0.0, 0, -1, -2, -3, -4, -5, -6]))


def test_single_mode_scaling_with_c():
    ops1 = build_single_mode_ops(1, 1.0, 12)
    ops2 = build_single_mode_ops(1, 2.0, 12)
    np.testing.assert_allclose(ops2.Lplus, 4.0 * ops1.Lplus)


def test_single_mode_requires_window():
    with pytest.raises(ValueError):
        build_single_mode_ops(4, 1.0, 8)


def test_operator_pair_state_parameter():
    assert build_ground_ops(0.4, 64).p == 0.4
    assert build_single_mode_ops(2, 1.5, 16).p is None
    with pytest.raises(ValueError):
        build_ground_ops(1.0, 16)
    with pytest.raises(ValueError, match="mode index must be nonnegative"):
        build_single_mode_ops(-1, 1.0, 16)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_single_mode_frequencies_closed_form(mode):
    n_modes = 64
    ops = build_single_mode_ops(mode, 1.0, n_modes)
    report = stability_spectrum(ops)
    assert not report.unstable
    block = [2.0 * (mode - n) / (2 * mode + 1 - n) for n in range(mode)]
    tail = [(n - 2 * mode - 1) / (n + 1.0) for n in range(2 * mode + 2, n_modes)]
    want = np.sort(np.array(block + tail))
    got = np.sort(report.omegas)
    assert got.size == want.size
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_single_mode_zero_count(mode):
    # N zeros from the coupled pairs, one from the central mode, one from the
    # n = 2N + 1 tail entry: N + 2 zero eigenvalues of P in total
    n_modes = 48
    report = stability_spectrum(build_single_mode_ops(mode, 1.0, n_modes))
    scale = max(float(np.max(np.abs(report.p_eigenvalues))), 1.0)
    zeros = int(np.sum(np.abs(report.p_eigenvalues) <= 1e-8 * scale))
    assert zeros == mode + 2


def test_single_mode_signature_counts():
    # within the truncation: L+ has N + 1 positive and N + 1 zero eigenvalues,
    # L- has N positive and N + 2 zeros; combined, 2N + 1 positive and 2N + 3
    # zero eigenvalues with the rest negative
    for mode in (0, 1, 2):
        n_modes = 40
        ops = build_single_mode_ops(mode, 1.0, n_modes)
        for mat, pos_want, zeros_want in (
            (ops.Lplus, mode + 1, mode + 1),
            (ops.Lminus, mode, mode + 2),
        ):
            vals = spectrum(mat)
            pos = int(np.sum(vals > 1e-8))
            zero = int(np.sum(np.abs(vals) <= 1e-8))
            assert (pos, zero) == (pos_want, zeros_want)


def test_commutators_vanish_on_inner_block():
    ops = build_ground_ops(0.5, 128)
    c1, c2 = commutators(ops, 64)
    assert c1 <= 1e-8
    assert c2 <= 1e-8
    with pytest.raises(ValueError):
        commutators(ops, 100)


def test_suite_helpers_reject_out_of_range_orders():
    # each would otherwise end in NaN residuals, empty arrays or numpy's
    # zero-size error
    for call, match in (
        (lambda: ladder_check(0.3, 4), "m_max must lie in 1..N/2"),
        (lambda: ladder_check(0.3, 64, m_max=33), "m_max must lie in 1..N/2"),
        (lambda: ladder_check(0.3, 64, m_max=0), "m_max must lie in 1..N/2"),
        (lambda: mu_ladder(0.3, -1, 64), "m_max must be >= 0"),
        (lambda: commutators(build_ground_ops(0.5, 128), 0), "inner block must lie in 1..N/2"),
    ):
        with pytest.raises(ValueError, match=match) as err:
            call()
        assert "\n" not in str(err.value)
    # the bounds themselves are accepted
    assert ladder_check(0.3, 64, m_max=32).eigen_residuals.shape == (32,)
    assert mu_ladder(0.3, 0, 64).residuals.shape == (1,)
    assert commutators(build_ground_ops(0.5, 128), 1)[0] <= 1e-8


@short_truncation
@pytest.mark.parametrize("n_modes", [8, 128, 512])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.95])
def test_power_table_is_bitwise_elementwise_power(p, n_modes):
    # reference: p raised element-wise over the N x N exponent grids, and
    # L+- = 2(T - H) - M +- w w^T with w = M A(p)
    n = np.arange(n_modes)
    toeplitz = p ** np.abs(np.subtract.outer(n, n))
    hankel = p ** (np.add.outer(n, n) + 2.0)
    w = (n + 1) * ((1.0 - p * p) * p**n)
    symmetric = 2.0 * (toeplitz - hankel) - np.diag(n + 1.0)
    ops = build_ground_ops(p, n_modes)
    assert np.array_equal(ops.Lplus, symmetric + np.outer(w, w))
    assert np.array_equal(ops.Lminus, symmetric - np.outer(w, w))
    assert np.array_equal(toeplitz_core(p, n_modes), toeplitz - hankel)


def test_toeplitz_core_entries():
    t_mat = toeplitz_core(0.5, 6)
    assert t_mat[2, 4] == pytest.approx(0.5**2 - 0.5**8)
    np.testing.assert_allclose(t_mat, t_mat.T, atol=0)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
def test_ladder_structure(p):
    report = ladder_check(p, 192)
    assert report.commutation_residual_S <= 1e-11
    assert report.commutation_residual_Sstar <= 1e-11
    assert report.v1_residual <= 1e-10
    assert report.v1_shift_angle <= 1e-9
    assert np.max(report.eigen_residuals) <= 1e-9


def test_ladder_first_vector_at_p_zero():
    # 2T(0) - M = diag(1, 0, -1, -2, ...), so the eigenvalue -1 eigenvector
    # degenerates to e_2 and the closed form must stay regular at p = 0
    report = ladder_check(0.0, 32)
    assert report.v1_residual <= 1e-14


@pytest.mark.parametrize("p", [0.2, 0.5])
def test_mu_ladder(p):
    report = mu_ladder(p, 8, 256)
    np.testing.assert_allclose(report.mus, 1.0 / (np.arange(9) + 1.0))
    # the {M^j A} basis is badly conditioned at high m and small p
    assert np.max(report.residuals) <= 1e-8
    # frozen m = 1 coefficient: v = MA - (1+p^2)/(1-p^2) A ... sign per the
    # eigen-condition solve; magnitude matches the closed form
    coeff = report.coefficients[1]
    assert abs(coeff[0]) == pytest.approx((1 + p * p) / (1 - p * p), rel=1e-9)


def test_mu_ladder_second_vector_coefficients():
    # m = 2: v = M^2 A + 3(1+p^2)/(1-p^2) MA - 2(1+p^2+p^4)/(1-p^2)^2 A,
    # up to the overall sign convention of the intermediate coefficient
    p = 0.4
    report = mu_ladder(p, 3, 256)
    c0, c1, c2 = report.coefficients[2]
    assert c2 == 1.0
    assert abs(c1) == pytest.approx(3 * (1 + p * p) / (1 - p * p), rel=1e-8)
    assert abs(c0) == pytest.approx(
        2 * (1 + p * p + p**4) / (1 - p * p) ** 2, rel=1e-8
    )


def test_coercivity_negative_on_constrained_subspace():
    val_plus, val_minus = coercivity(build_ground_ops(0.0, 256))
    assert val_plus == pytest.approx(-1.0 / 3.0, abs=1e-8)
    assert val_minus == pytest.approx(-1.0 / 3.0, abs=1e-8)
    for p in (0.3, 0.5):
        val_plus, val_minus = coercivity(build_ground_ops(p, 256))
        assert val_plus < 0
        assert val_minus < 0


def test_solvability_inner_product():
    # L+ A = 2MA gives <L+^{-1} MA, MA> = <A, MA>/2 = Q(A)/2 = 1/2
    p, n_modes = 0.4, 200
    ops = build_ground_ops(p, n_modes)
    weighted = ops.M * ground_amplitudes(p, n_modes)
    sol, *_ = np.linalg.lstsq(ops.Lplus, weighted, rcond=None)
    assert sol @ weighted == pytest.approx(0.5, abs=1e-9)


def test_coercivity_requires_ground_state():
    with pytest.raises(ValueError):
        coercivity(build_single_mode_ops(0, 1.0, 16))


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_appendix_identities(p):
    report = appendix_identities(p, 50)
    assert max(report.values()) <= 1e-12
    assert report["kernel_total"] == 0.0  # exact integer identity


def _appendix_identities_loop(p, n_max, tail_eps=1e-22):
    """Reference: every direct sum formed term by term, one (n, j) pair at a time."""
    kmax = max(200, int(np.ceil(np.log(tail_eps) / np.log(p))) + 2 * n_max + 4)

    def rel(err, scale):
        return err / max(abs(scale), 1e-300)

    worst = dict.fromkeys(
        (
            "geometric_sum",
            "geometric_weighted",
            "kernel_row_le",
            "kernel_row_ge",
            "kernel_total",
            "folded_sum",
            "folded_weighted",
        ),
        0.0,
    )
    for n in range(n_max + 1):
        k = np.arange(n + 1)
        direct = float(np.sum(p ** (2 * k)))
        closed = (1.0 - p ** (2 * n + 2)) / (1.0 - p * p)
        worst["geometric_sum"] = max(worst["geometric_sum"], rel(abs(direct - closed), closed))
        direct = float(np.sum(k * p ** (2 * k)))
        closed = p * p * (1.0 - (n + 1) * p ** (2 * n) + n * p ** (2 * n + 2)) / (1.0 - p * p) ** 2
        worst["geometric_weighted"] = max(
            worst["geometric_weighted"], rel(abs(direct - closed), max(closed, 1.0))
        )
        kk = np.arange(1, kmax)
        direct = float(np.sum(p ** (kk + np.abs(n - kk))))
        closed = (p * p + n * (1.0 - p * p)) / (1.0 - p * p) * p**n
        worst["folded_sum"] = max(worst["folded_sum"], rel(abs(direct - closed), closed))
        direct = float(np.sum(kk * p ** (kk + np.abs(n - kk))))
        closed = (
            (2 * p * p + n * (1.0 - p**4) + n * n * (1.0 - p * p) ** 2)
            / (2.0 * (1.0 - p * p) ** 2)
            * p**n
        )
        worst["folded_weighted"] = max(worst["folded_weighted"], rel(abs(direct - closed), closed))
    for n in range(n_max + 1):
        for j in range(n_max + 1):
            if j <= n:
                kk = np.arange(0, kmax)
                coeff = np.minimum(np.minimum(n, j), np.minimum(kk, n + kk - j)) + 1.0
                direct = float(np.sum(coeff * p ** (n + 2 * kk - j).astype(float)))
                closed = (p ** (n - j) - p ** (2 + j + n)) / (1.0 - p * p) ** 2
                worst["kernel_row_le"] = max(worst["kernel_row_le"], rel(abs(direct - closed), closed))
            if j >= n:
                kk = np.arange(j - n, kmax)
                coeff = np.minimum(np.minimum(n, j), np.minimum(kk, n + kk - j)) + 1.0
                direct = float(np.sum(coeff * p ** (n + 2 * kk - j).astype(float)))
                closed = (p ** (j - n) - p ** (2 + j + n)) / (1.0 - p * p) ** 2
                worst["kernel_row_ge"] = max(worst["kernel_row_ge"], rel(abs(direct - closed), closed))
                kk = np.arange(0, n + j + 1)
                coeff = np.minimum(np.minimum(n, j), np.minimum(kk, n + j - kk)) + 1
                worst["kernel_total"] = max(
                    worst["kernel_total"], float(abs(int(np.sum(coeff)) - (1 + j) * (1 + n)))
                )
    return worst


@pytest.mark.parametrize("n_max", [0, 1, 50, MAX_IDENTITY_ORDER])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_appendix_identities_match_reference_loop(p, n_max):
    report = appendix_identities(p, n_max)
    want = _appendix_identities_loop(p, n_max)
    assert list(report) == list(want)
    for key, value in want.items():
        assert abs(report[key] - value) <= 1e-15, key
    assert report["kernel_total"] == 0.0


def test_appendix_identities_tail_bound():
    # tails of 506648 terms at p = 0.9999 would need about 0.8 GiB: refused up front
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="tails of"):
            appendix_identities(0.9999, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # below the bound the values are unchanged (0.99 sums 5144 tail terms)
    for p in (0.3, 0.6, 0.99):
        report = appendix_identities(p, 50)
        for key, value in _appendix_identities_loop(p, 50).items():
            assert abs(report[key] - value) <= 1e-15, (p, key)


@pytest.mark.parametrize("n_max", [-1, 1.5, MAX_IDENTITY_ORDER + 1])
def test_appendix_identities_order_bound(n_max):
    # refused before any (n_max + 1) x kmax temporary is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_max must be an integer"):
            appendix_identities(0.3, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_mode_energy_relation():
    for p in (0.3, 0.5, 0.7):
        report = mode_energy_relation(p)
        assert abs(report["orthogonality"]) <= 1e-12
        assert report["inner_rel_err"] <= 1e-12
        assert report["series_rel_err"] <= 1e-12
    report = mode_energy_relation(0.5)
    assert report["expected_inner"] == pytest.approx(16.0 / 9.0)
    with pytest.raises(ValueError):
        mode_energy_relation(0.0)


def test_truncation_tail_warning():
    with pytest.warns(UserWarning):
        build_ground_ops(0.9, 32)
