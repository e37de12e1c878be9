"""Second-variation operators: entries, spectra, ladders, identities."""

import tracemalloc

import numpy as np
import pytest

from conformalflow.linearized import (
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
    minus = spectrum(ops, "minus").eigenvalues[:12]
    plus = spectrum(ops, "plus").eigenvalues[:12]
    lam = 2 * (1 + p * p) / (1 - p * p)
    np.testing.assert_allclose(minus, [0, 0] + [-m for m in range(1, 11)], atol=1e-6)
    np.testing.assert_allclose(plus, [lam, 0] + [-m for m in range(1, 11)], atol=1e-6)


@short_truncation
@pytest.mark.parametrize("n_modes", [16, 128, 512])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.6])
def test_spectrum_subset_matches_full_solve(p, n_modes):
    # the top-count solve returns the leading count of the full solve
    ops = build_ground_ops(p, n_modes)
    for which in ("plus", "minus"):
        full = spectrum(ops, which).eigenvalues
        scale = max(float(np.max(np.abs(full))), 1.0)
        for count in (1, 12, n_modes):
            top = spectrum(ops, which, count)
            assert top.eigenvalues.shape == top.residuals.shape == (count,)
            assert top.eigenvectors.shape == (n_modes, count)
            np.testing.assert_allclose(top.eigenvalues, full[:count], rtol=0, atol=1e-12 * scale)
            assert np.max(top.residuals) <= 1e-10 * scale
        for count in (0, n_modes + 1):
            with pytest.raises(ValueError):
                spectrum(ops, which, count)


@short_truncation
def test_spectrum_rejects_bad_selector():
    ops = build_ground_ops(0.2, 16)
    with pytest.raises(ValueError):
        spectrum(ops, "both")


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
        for which, pos_want, zeros_want in (
            ("plus", mode + 1, mode + 1),
            ("minus", mode, mode + 2),
        ):
            vals = spectrum(ops, which).eigenvalues
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


@short_truncation
@pytest.mark.parametrize("n_modes", [8, 128, 512])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.95])
def test_power_table_is_bitwise_elementwise_power(p, n_modes):
    # reference: p raised element-wise over the N x N exponent grids
    n = np.arange(n_modes)
    toeplitz = p ** np.abs(np.subtract.outer(n, n))
    hankel = p ** (np.add.outer(n, n) + 2.0)
    pn = p**n
    rank_one = 2.0 * p * p * np.outer(pn, pn)
    weighted = (1.0 - p * p) ** 2 * np.outer((n + 1.0) * pn, (n + 1.0) * pn)
    diag = np.diag(n + 1.0)
    ops = build_ground_ops(p, n_modes)
    assert np.array_equal(ops.Lplus, 2.0 * toeplitz - rank_one + weighted - diag)
    assert np.array_equal(ops.Lminus, 2.0 * toeplitz - rank_one - weighted - diag)
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


@pytest.mark.parametrize("n_max", [0, 1, 50])
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
