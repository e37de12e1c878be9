"""Second-variation operators: entries, spectra, ladders, identities."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conformalflow import linearized
from conformalflow.lab import main
from conformalflow.linearized import (
    MAX_IDENTITY_ORDER,
    TAIL_TOL,
    OperatorPair,
    _coupled_order,
    _leading_top,
    _toeplitz_core,
    appendix_identities,
    build_ground_ops,
    build_single_mode_ops,
    commutators,
    ladder_check,
    mode_energy_relation,
    mu_ladder,
    spectrum,
    stability_spectrum,
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
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.6, 0.8, 0.9, 0.95])
def test_spectrum_subset_matches_full_solve(p, n_modes):
    # the top-count solve returns the leading count of the full solve, to
    # 1e-12 of the top count's own scale
    ops = build_ground_ops(p, n_modes)
    for mat in (ops.Lplus, ops.Lminus):
        full = spectrum(mat)
        for count in (1, 12, n_modes):
            top = spectrum(mat, count)
            assert top.shape == (count,)
            scale = max(float(np.max(np.abs(full[:count]))), 1.0)
            np.testing.assert_allclose(top, full[:count], rtol=0, atol=1e-12 * scale)
        # at N = 512 the top 12 come from a certified leading block for the
        # ladders that decay fast enough, and from the whole solve otherwise
        if n_modes == 512 and p > 0.0:
            assert (_leading_top(mat, 12) is not None) == (p <= 0.6)
        for count in (0, n_modes + 1):
            with pytest.raises(ValueError):
                spectrum(mat, count)


def test_spectrum_residual_contract(monkeypatch, capsys):
    # eigenvalues shifted off their eigenvectors break the contract, and the
    # CLI reports it as a numerical failure
    eigh = np.linalg.eigh

    def shifted(*args, **kwargs):
        vals, vecs = eigh(*args, **kwargs)
        return vals + 1e-3, vecs

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    with pytest.raises(ArithmeticError, match="residual contract"):
        spectrum(build_ground_ops(0.3, 128).Lplus)
    # at N = 512 every leading block fails its residual, and the whole solve raises
    with pytest.raises(ArithmeticError, match="residual contract"):
        spectrum(build_ground_ops(0.3, 512).Lplus, 12)
    # the whole stability solve takes the same route
    with pytest.raises(ArithmeticError, match="residual contract"):
        stability_spectrum(build_ground_ops(0.3, 128))
    assert main(["spectrum"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def _full_top(mat, count):
    """Oracle: the count largest eigenvalues of one whole dense solve."""
    return scipy.linalg.eigh(mat, eigvals_only=True)[::-1][:count]


def test_leading_block_finds_planted_tail_eigenvalue():
    # a diagonal entry of 1.5 deep in the tail puts an eigenvalue between
    # lambda* and 0, far from the leading modes: Gershgorin rejects every block
    mat = build_ground_ops(0.3, 512).Lplus.copy()
    mat[400, 400] = 1.5
    assert _leading_top(mat, 12) is None
    got = spectrum(mat, 12)
    np.testing.assert_allclose(got, _full_top(mat, 12), rtol=0, atol=1e-12 * got[0])
    assert np.min(np.abs(got - 1.5)) <= 0.5


def test_leading_block_margin_rejects_strong_coupling():
    # L+ at p = 0.3 has top 12 lambda*, 0, -1 .. -10, so sigma = -10.5.  Row 300
    # is cut loose from its neighbours and given the diagonal sigma - 0.05, then
    # coupled to row 60, where the leading eigenvectors have decayed below
    # rounding: every leading block passes the residual, Gershgorin stays
    # positive, and only the margin ||B||^2 / gamma > 1/2 stops it.  The coupling
    # lifts the planted value above -10, so a leading solve alone would be wrong.
    mat = build_ground_ops(0.3, 512).Lplus.copy()
    mat[300, :] = mat[:, 300] = 0.0
    mat[300, 300] = -10.55
    mat[60, 300] = mat[300, 60] = 6.0
    want = _full_top(mat, 12)
    leading = scipy.linalg.eigh(mat[:128, :128], eigvals_only=True)[::-1][:12]
    assert np.max(np.abs(want - leading)) > 0.1
    assert _leading_top(mat, 12) is None
    np.testing.assert_allclose(spectrum(mat, 12), want, rtol=0, atol=1e-12 * want[0])


def test_leading_block_falls_through_without_decay():
    rng = np.random.Generator(np.random.Philox(key=21))
    dense = rng.standard_normal((512, 512))
    mat = dense + dense.T
    assert _leading_top(mat, 12) is None
    want = _full_top(mat, 12)
    np.testing.assert_allclose(spectrum(mat, 12), want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("order", [128, 510, 512, 1024])
def test_leading_block_sizes(order, monkeypatch):
    # K doubles from 64 while K < N/2: the blocks of K <= N/4 for every
    # power-of-two order, and also 128 for the order-510 reduced matrix of the
    # stability problem at N = 512
    tried = []
    eigh = np.linalg.eigh

    def spy(mat, *args, **kwargs):
        tried.append(mat.shape[0])
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rng = np.random.Generator(np.random.Philox(key=order))
    dense = rng.standard_normal((order, order))
    # without decay no block passes its residual, so every size is tried
    assert _leading_top(dense + dense.T, 9) is None
    assert tried == {128: [], 510: [64, 128], 512: [64, 128], 1024: [64, 128, 256]}[order]


@pytest.mark.parametrize("p", [0.3, 0.6])
def test_leading_block_forms_no_square_temporary(p):
    # the Gershgorin sums of the trailing block go over 64-row blocks of it, so
    # a certified top stays below half an N x N float64 array (1 MiB at N = 512)
    mat = build_ground_ops(p, 512).Lplus
    tracemalloc.start()
    try:
        _, solved = linearized._top_block(mat, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solved < 512
    assert peak < 2**20


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


#: every operator the spectrum suite builds
SUITE_OPERATORS = {
    "ground-0.0": lambda n: build_ground_ops(0.0, n),
    "ground-0.3": lambda n: build_ground_ops(0.3, n),
    "ground-0.6": lambda n: build_ground_ops(0.6, n),
    "mode-0": lambda n: build_single_mode_ops(0, 1.0, n),
    "mode-1": lambda n: build_single_mode_ops(1, 1.0, n),
    "mode-2": lambda n: build_single_mode_ops(2, 1.0, n),
}
#: (p, N) of the ground pairs whose truncation breaks L0 A = M A beyond the
#: structure tolerance (the residual grows like p^N): they take the general route
GENERAL_GROUND = {(0.3, 16), (0.6, 16), (0.8, 16), (0.9, 16), (0.9, 128)}


def _ground_route(p, n_modes):
    """The route stability_spectrum must take for the ground pair at p: the
    diagonal p = 0 pair and the GENERAL_GROUND pairs take the general one."""
    return "general" if p == 0.0 or (p, n_modes) in GENERAL_GROUND else "supersymmetric"


def _route(name, n_modes):
    """The route stability_spectrum must take for a SUITE_OPERATORS entry."""
    return "general" if name.startswith("mode") else _ground_route(float(name[7:]), n_modes)


def _oracle(ops):
    """The nonsymmetric eigenvalues of P = M^-1 L- M^-1 L+ itself, np.sort-ed."""
    minv = 1.0 / ops.M
    return np.sort(np.linalg.eigvals((minv[:, None] * ops.Lminus) @ (minv[:, None] * ops.Lplus)))


def _assert_matches_eigvals(report, ops, want=None):
    # the report holds the oracle's lowest len(p_eigenvalues), zeros included,
    # in np.sort order, whichever route solved them
    want = _oracle(ops) if want is None else want
    got = report.p_eigenvalues
    scale = max(float(np.max(np.abs(want))), 1.0)
    assert np.array_equal(got, np.sort(got))
    assert np.max(np.abs(got - want[: got.size])) <= 1e-10 * scale


@short_truncation
@pytest.mark.parametrize("n_modes", [16, 128, 512])
@pytest.mark.parametrize("name", list(SUITE_OPERATORS))
def test_stability_reduction_matches_eigvals(name, n_modes):
    # the contract on both routes: the min(count, N) lowest eigenvalues of P
    ops = SUITE_OPERATORS[name](n_modes)
    want = _oracle(ops)
    for count in (1, 2, 9, 11, None):
        report = stability_spectrum(ops, count)
        assert report.reduction == _route(name, n_modes)
        assert report.p_eigenvalues.shape == (min(count or n_modes, n_modes),)
        _assert_matches_eigvals(report, ops, want)


@short_truncation
@pytest.mark.parametrize("n_modes", [16, 128, 512])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.6, 0.8, 0.9])
def test_supersymmetric_route_matches_eigvals(p, n_modes):
    # the whole solve and the lowest 9 against the nonsymmetric oracle, and
    # against the closed forms where the truncation tail p^(N/2) is below
    # TAIL_TOL
    ops = build_ground_ops(p, n_modes)
    route = _ground_route(p, n_modes)
    want = _oracle(ops)
    for count in (9, None):
        report = stability_spectrum(ops, count)
        assert report.reduction == route
        assert report.p_eigenvalues.shape == (count or n_modes,)
        _assert_matches_eigvals(report, ops, want)
        if p ** (n_modes / 2) <= TAIL_TOL:
            # the two zeros lead, so count 9 holds Omega_2 .. Omega_8 only
            got = report.omegas[:9]
            assert got.size == min(9, (count or n_modes) - 2)
            closed = [(m - 1) / (m + 1) for m in range(2, 2 + got.size)]
            np.testing.assert_allclose(got, closed, rtol=0, atol=1e-12)


def _ground_pair(p, n_modes, ladder=None, coupling=None):
    """The ground pair at p rebuilt as L+- = L0 +- w w^T from its L0, with
    ``ladder`` added to L0 and ``coupling`` added to L+ and taken from L-."""
    ops = build_ground_ops(p, n_modes)
    base = 0.5 * (ops.Lplus + ops.Lminus)
    if ladder is not None:
        base += ladder
    weighted = ops.M * ground_amplitudes(p, n_modes)
    outer = np.outer(weighted, weighted)
    if coupling is not None:
        outer += coupling
    return OperatorPair(base + outer, base - outer, p)


def _structure_residuals(ops):
    """||(L+ - L-)/2 - w w^T||_F and ||L0 A - M A||."""
    ground = ground_amplitudes(ops.p, ops.n_modes)
    weighted = ops.M * ground
    coupling = np.linalg.norm(0.5 * (ops.Lplus - ops.Lminus) - np.outer(weighted, weighted))
    ladder = np.linalg.norm(0.5 * (ops.Lplus + ops.Lminus) @ ground - weighted)
    return coupling, ladder


@pytest.mark.parametrize("broken", ["coupling", "ladder"])
def test_broken_structure_falls_back(broken):
    # a symmetric bump of 1e-9 breaks one structure check and leaves the other
    # at rounding: the coupling alone, or L0 A = M A alone (bump along A)
    ground = ground_amplitudes(0.3, 128)
    bump = 1e-9 * np.outer(ground, ground)
    ops = _ground_pair(0.3, 128, **{broken: bump})
    coupling, ladder = _structure_residuals(ops)
    assert (coupling > 1e-10, ladder > 1e-10) == (broken == "coupling", broken == "ladder")
    assert max(coupling, ladder) <= 1e-8
    assert stability_spectrum(_ground_pair(0.3, 128)).reduction == "supersymmetric"
    for count in (9, None):
        report = stability_spectrum(ops, count)
        assert report.reduction == "general"
        _assert_matches_eigvals(report, ops)


@pytest.mark.parametrize(("planted", "mu", "count"), [(16, 0.9, 9), (1, 1.2, None)])
def test_certificate_refuses_misplaced_top(planted, mu, count, monkeypatch):
    # modes 100.. of L0 are cut loose and given B = M^-1/2 T M^-1/2 the
    # eigenvalue mu; A has decayed below rounding there, so the structure
    # holds.  Sixteen values 0.9 fill the top count + 3 of B, so the next mu
    # is above 1/2 and "lowest" fails; one value 1.2 sits above v's 1, so the
    # top is not v's, which the whole solve (no "lowest" check) must catch.
    # Either way the general route runs
    modes = np.arange(100, 100 + planted)
    ops = build_ground_ops(0.3, 128)
    base = 0.5 * (ops.Lplus + ops.Lminus)
    cut = np.zeros_like(base)
    cut[modes, :] = -base[modes, :]
    cut[:, modes] = -base[:, modes]
    cut[modes, modes] += (2.0 * mu - 1.0) * ops.M[modes]
    ops = _ground_pair(0.3, 128, ladder=cut)
    assert max(_structure_residuals(ops)) <= 1e-14
    # the structure passes, so B's top is solved and then refused
    solved = []
    top_block = linearized._top_block
    monkeypatch.setattr(linearized, "_top_block", lambda *args: solved.append(top_block(*args)) or solved[-1])
    report = stability_spectrum(ops, count)
    assert report.reduction == "general"
    mu_top = solved[0][0]
    assert np.count_nonzero(np.abs(mu_top - mu) <= 1e-12) == min(planted, mu_top.size - 1)
    _assert_matches_eigvals(report, ops)


def test_asymmetric_pair_falls_back():
    # an antisymmetric K with K A = 0 added to both L+- leaves L+ - L- and
    # L0 A = M A intact, so only the symmetry check sees it; the Bauer-Fike
    # certificate assumes symmetric L+-, and the general route runs instead
    p, n_modes = 0.3, 128
    ops = build_ground_ops(p, n_modes)
    rng = np.random.Generator(np.random.Philox(key=3))
    noise = rng.standard_normal((n_modes, n_modes))
    ground = ground_amplitudes(p, n_modes)
    project = np.eye(n_modes) - np.outer(ground, ground) / (ground @ ground)
    skew = project @ (1e-2 * (noise - noise.T)) @ project
    bent = OperatorPair(ops.Lplus + skew, ops.Lminus + skew, p)
    assert max(_structure_residuals(bent)) <= 1e-14
    for count in (9, None):
        report = stability_spectrum(bent, count)
        assert report.reduction == "general"
        _assert_matches_eigvals(report, bent)


def test_supersymmetric_update_forms_no_second_square_array():
    # 2F = L+ - L- - 2 w w^T is updated in place over 64-row blocks of the one
    # N x N buffer (2 MiB at N = 512); the peak is 2.6 MiB, and a whole
    # outer(w, w) beside the buffer would pass 4
    ops = build_ground_ops(0.3, 512)
    tracemalloc.start()
    try:
        found = linearized._supersymmetric_eigenvalues(ops, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None
    assert peak < 2 * 512 * 512 * 8


def test_stability_margin_refuses_planted_coupling():
    # the planted matrix of test_leading_block_margin_rejects_strong_coupling,
    # moved into B = M^-1/2 T M^-1/2 of a structured ground pair at p = 0.3,
    # N = 512: mode 300 is cut loose, given B's diagonal sigma - 0.002, with
    # sigma = (1/12 + 1/13)/2 the midpoint below B's top 12, and coupled to
    # mode 60 by the B entry 0.05, where A and B's top eigenvectors have
    # decayed below rounding.  The structure holds, every leading block passes
    # its residual and Gershgorin, and only the margin ||B12||^2 / gamma > 1.2
    # refuses them, so B is solved whole; its lifted eigenvalue mu = 0.106 puts
    # Omega^2 = 0.620 among the 11 lowest, which the block of order 64 misses
    p, n_modes, mode, partner = 0.3, 512, 300, 60
    clean_ops = build_ground_ops(p, n_modes)
    m_diag = clean_ops.M
    base = 0.5 * (clean_ops.Lplus + clean_ops.Lminus)
    cut = np.zeros_like(base)
    cut[mode, :] = -base[mode, :]
    cut[:, mode] = -base[:, mode]
    # B_ii = (L0_ii + M_i) / (2 M_i) and B_ij = L0_ij / (2 sqrt(M_i M_j))
    cut[mode, mode] += (2.0 * (0.5 * (1 / 12 + 1 / 13) - 0.002) - 1.0) * m_diag[mode]
    entry = 2.0 * 0.05 * np.sqrt(m_diag[mode] * m_diag[partner])
    cut[mode, partner] += entry
    cut[partner, mode] += entry
    ops = _ground_pair(p, n_modes, ladder=cut)
    assert max(_structure_residuals(ops)) <= 1e-14
    report = stability_spectrum(ops, 11)
    assert (report.reduction, report.solved) == ("supersymmetric", n_modes)
    _assert_matches_eigvals(report, ops)
    clean = stability_spectrum(clean_ops, 11)
    assert clean.solved == 64
    assert np.min(np.abs(report.p_eigenvalues - 0.620)) <= 1e-3
    assert np.min(np.abs(clean.p_eigenvalues - 0.620)) > 0.01


@short_truncation
@pytest.mark.parametrize("n_modes", [16, 512])
def test_coupled_order_of_suite_operators(n_modes):
    # diagonal at p = 0 and for mode 0, a 3 x 3 and 5 x 5 block for modes 1
    # and 2, dense for the ground state at p > 0
    coupled = {"ground-0.0": 0, "ground-0.3": n_modes, "ground-0.6": n_modes}
    coupled |= {"mode-0": 0, "mode-1": 3, "mode-2": 5}
    for name, build in SUITE_OPERATORS.items():
        ops = build(n_modes)
        want = coupled[name]
        assert _coupled_order(ops.Lplus, ops.Lminus) == want, name
        assert _coupled_order(ops.Lplus) == _coupled_order(ops.Lminus) == want, name
        # the whole supersymmetric solve takes all of B, the general route
        # the coupled block
        route = _route(name, n_modes)
        assert stability_spectrum(ops).solved == (n_modes if route == "supersymmetric" else want), name


@pytest.mark.parametrize("n_modes", [128, 512])
def test_diagonal_ground_pair_takes_general_route(n_modes, monkeypatch):
    # the p = 0 pair is diagonal, so its coupled order is 0 and the general
    # route's closed-form tail holds Omega^2 = ((m-1)/(m+1))^2 exactly; the
    # supersymmetric route is not tried.  A dense pair at p > 0 still takes it
    assert stability_spectrum(build_ground_ops(0.3, n_modes), 11).reduction == "supersymmetric"

    def refuse(*args):
        raise AssertionError("a diagonal pair tried the supersymmetric route")

    monkeypatch.setattr(linearized, "_supersymmetric_eigenvalues", refuse)
    report = stability_spectrum(build_ground_ops(0.0, n_modes), 11)
    assert (report.reduction, report.solved) == ("general", 0)
    want = [0.0, 0.0] + [(m - 1) ** 2 / (m + 1) ** 2 for m in range(2, 11)]
    assert np.array_equal(report.p_eigenvalues, want)
    assert (report.zero_geometric, report.jordan_partners, report.unstable) == (3, 1, False)


@pytest.mark.parametrize("n_modes", [128, 512])
def test_block_diagonal_spectra(n_modes):
    # the p = 0 pair and single mode 0 are diagonal: their top 12 are the
    # diagonal's, bitwise; modes 1 and 2 couple a leading 3 x 3 and 5 x 5 block.
    # At N = 512 a leading block certifies all four with zero coupling
    for name in ("ground-0.0", "mode-0", "mode-1", "mode-2"):
        ops = SUITE_OPERATORS[name](n_modes)
        for mat in (ops.Lplus, ops.Lminus):
            got = spectrum(mat, 12)
            if name in ("ground-0.0", "mode-0"):
                assert np.array_equal(got, np.sort(np.diagonal(mat))[::-1][:12]), name
            else:
                np.testing.assert_allclose(got, _full_top(mat, 12), rtol=0, atol=1e-12)
            if n_modes == 512:
                assert _leading_top(mat, 12) is not None, name


def _block_coupled_pair(order, n_modes, positive_tail):
    """Random symmetric L+- whose off-diagonal entries lie in the leading
    order x order block.  L- <= 0 with rank order - 1 on the block and an
    exact zero on every third tail entry; with ``positive_tail`` its last
    diagonal entry, which lies in the tail, is positive instead.  With no
    ground-state parameter, the pair takes the general route."""
    rng = np.random.Generator(np.random.Philox(key=order))
    plus = np.diag(rng.standard_normal(n_modes))
    block = rng.standard_normal((order, order))
    plus[:order, :order] = block + block.T
    minus = np.diag(-rng.random(n_modes))
    zeros = np.arange(order, n_modes, 3)
    minus[zeros, zeros] = 0.0
    factor = rng.standard_normal((order, max(order - 1, 0)))
    minus[:order, :order] = -factor @ factor.T
    if positive_tail:
        minus[-1, -1] = 0.5
    return OperatorPair(plus, minus, None)


@pytest.mark.parametrize(
    ("order", "positive_tail"),
    # at order N there is no tail to hold a positive entry
    [(order, False) for order in (0, 1, 3, 23, 24)] + [(order, True) for order in (0, 1, 3, 23)],
)
def test_decoupled_solves_match_full_solves(order, positive_tail):
    # a block of order 1 has no off-diagonal entry, so its order reads 0
    n_modes = 24
    ops = _block_coupled_pair(order, n_modes, positive_tail)
    report = stability_spectrum(ops)
    assert report.solved == (order if order > 1 else 0)
    assert report.reduction == "general"
    _assert_matches_eigvals(report, ops)
    for mat in (ops.Lplus, ops.Lminus):
        want = scipy.linalg.eigh(mat, eigvals_only=True)[::-1]
        scale = max(float(np.max(np.abs(want))), 1.0)
        for count in (1, 12, n_modes):
            got = spectrum(mat, count)
            assert got.shape == (count,)
            assert np.max(np.abs(got - want[:count])) <= 1e-10 * scale


@short_truncation
@pytest.mark.parametrize("n_modes", [128, 512, 1024])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.6, 0.8, 0.9])
def test_stability_count_matches_whole_solve(p, n_modes):
    # the lowest 9 are the first 9 of the whole solve; they come from a
    # certified leading block of B = M^-1/2 T M^-1/2 where B's top decays fast
    # enough.  At N = 128, p = 0.9 the truncation breaks the structure and
    # both solves take the general route, which sorts all N and slices
    ops = build_ground_ops(p, n_modes)
    whole = stability_spectrum(ops)
    lowest = stability_spectrum(ops, 9)
    route = "general" if (p, n_modes) == (0.9, 128) else "supersymmetric"
    assert lowest.reduction == whole.reduction == route
    np.testing.assert_allclose(lowest.p_eigenvalues, whole.p_eigenvalues[:9], rtol=0, atol=1e-12)
    np.testing.assert_allclose(lowest.omegas, whole.omegas[: lowest.omegas.size], rtol=0, atol=1e-12)
    assert lowest.unstable == whole.unstable
    assert (lowest.zero_geometric, lowest.jordan_partners) == (whole.zero_geometric, whole.jordan_partners)
    solved = {128: dict.fromkeys((0.1, 0.3, 0.6, 0.8, 0.9), 128)}
    solved[512] = {0.1: 64, 0.3: 64, 0.6: 128, 0.8: 512, 0.9: 512}
    solved[1024] = {0.1: 64, 0.3: 64, 0.6: 128, 0.8: 256, 0.9: 1024}
    assert (whole.solved, lowest.solved) == (n_modes, solved[n_modes][p])


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_stability_count_range(p):
    # count = 1 returns the lowest of the whole solve, a zero, and count = N all
    # of it; a count outside 1..N raises
    ops = build_ground_ops(p, 128)
    whole = stability_spectrum(ops).p_eigenvalues
    for count in (1, 128):
        got = stability_spectrum(ops, count).p_eigenvalues
        np.testing.assert_allclose(got, whole[:count], rtol=0, atol=1e-12)
    for count in (0, 129):
        with pytest.raises(ValueError, match="count"):
            stability_spectrum(ops, count)


@pytest.mark.parametrize("count", [1, 2])
def test_stability_fewest_counts_stay_supersymmetric(count):
    # k = max(count, 2) keeps v's zero and the zero mode's inside the block:
    # the top 3 of B certify at order 64
    ops = build_ground_ops(0.3, 512)
    report = stability_spectrum(ops, count)
    assert (report.reduction, report.solved) == ("supersymmetric", 64)
    _assert_matches_eigvals(report, ops)
    assert report.omegas.size == 0


def test_stability_unstable_beyond_count():
    # a general-route pair whose P has the complex pair 5 +- i above its
    # lowest values: the 2 x 2 block P = X Y of the symmetric
    # X = M^-1 L- M^-1 = diag(1, -1) and Y = L+ = [[5, -1], [-1, -5]], the
    # rest P_ii = M_i / N.  The 3 lowest are real, and still the report is
    # unstable, judged on every value computed
    n_modes = 24
    m_diag = np.arange(1.0, n_modes + 1)
    lminus = -np.diag(m_diag**2)
    lminus[0, 0] = 1.0
    lplus = -np.diag(m_diag / n_modes)
    lplus[:2, :2] = [[5.0, -1.0], [-1.0, -5.0]]
    ops = OperatorPair(lplus, lminus, None)
    report = stability_spectrum(ops, 3)
    assert (report.reduction, report.solved) == ("general", 2)
    _assert_matches_eigvals(report, ops)
    assert np.all(report.p_eigenvalues.imag == 0.0)
    assert report.unstable


def test_stability_count_finds_planted_instability():
    # a positive diagonal entry of L+ at mode 400 breaks the coupling check,
    # and the general route's eigenvalues of P find the negative one it plants
    ops = build_ground_ops(0.3, 512)
    ops.Lplus[400, 400] = 50.0
    whole = stability_spectrum(ops)
    lowest = stability_spectrum(ops, 9)
    assert whole.unstable and lowest.unstable
    assert (lowest.reduction, lowest.solved) == ("general", 512)
    np.testing.assert_array_equal(lowest.p_eigenvalues, whole.p_eigenvalues[:9])
    _assert_matches_eigvals(lowest, ops)
    assert np.min(lowest.p_eigenvalues.real) < -0.1


def test_stability_count_margin_rejects_strong_coupling():
    # with L- = -M^2, P = -L+.  L+ is the planted matrix of
    # test_leading_block_margin_rejects_strong_coupling, whose leading blocks
    # pass the residual and Gershgorin and miss the planted value; a pair with
    # no ground-state parameter takes the general route, which finds it
    mat = build_ground_ops(0.3, 512).Lplus.copy()
    mat[300, :] = mat[:, 300] = 0.0
    mat[300, 300] = -10.55
    mat[60, 300] = mat[300, 60] = 6.0
    m_diag = np.arange(1.0, 513.0)
    ops = OperatorPair(mat, -np.diag(m_diag**2), None)
    want = -_full_top(mat, 12)
    leading = -scipy.linalg.eigh(mat[:128, :128], eigvals_only=True)[::-1][:12]
    assert np.max(np.abs(want - leading)) > 0.1
    report = stability_spectrum(ops, 12)
    assert (report.reduction, report.solved, report.unstable) == ("general", 512, True)
    _assert_matches_eigvals(report, ops)
    np.testing.assert_allclose(report.p_eigenvalues, want, rtol=0, atol=1e-12 * abs(want[0]))


@short_truncation
@pytest.mark.parametrize("n_modes", [16, 128])
@pytest.mark.parametrize("bump", [0.5, 1e-3])
def test_stability_indefinite_minus_falls_back(bump, n_modes):
    # a positive rank-one bump along the kernel vector A(p) makes L- indefinite;
    # the large one shows on the diagonal, the small one only in the trailing
    # block of the pivoted Cholesky factor
    ops = build_ground_ops(0.3, n_modes)
    ground = ground_amplitudes(0.3, n_modes)
    bumped = OperatorPair(ops.Lplus, ops.Lminus + bump * np.outer(ground, ground), ops.p)
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


def test_operator_pair_weight_follows_the_order():
    # M = diag(n+1) belongs to the model: the pair holds L+, L- and p only
    assert [field.name for field in dataclasses.fields(OperatorPair)] == ["Lplus", "Lminus", "p"]
    n_modes = 12
    hand = OperatorPair(np.eye(n_modes), -np.eye(n_modes), None)
    for ops in (build_ground_ops(0.0, n_modes), build_single_mode_ops(1, 1.0, n_modes), hand):
        assert np.array_equal(ops.M, np.arange(1.0, n_modes + 1))
        assert ops.n_modes == n_modes
    with pytest.raises(TypeError):
        OperatorPair(hand.Lplus, hand.Lminus, hand.M, None)


@pytest.mark.parametrize("n_modes", [0, -3, 2.5, 3.5, "8"])
def test_builders_refuse_degenerate_orders(n_modes):
    # refused before the tail warning, which p^(N/2) >= 1 would trip at p > 0
    for build in (
        lambda: build_ground_ops(0.0, n_modes),
        lambda: build_ground_ops(0.5, n_modes),
        lambda: build_single_mode_ops(1, 1.0, n_modes),
        lambda: build_single_mode_ops(0, 1.0, n_modes),
    ):
        with pytest.raises(ValueError, match="n_modes must be an integer >= 1"):
            build()


@pytest.mark.parametrize("n_modes", [True, False, np.True_])
def test_builders_refuse_boolean_orders(n_modes):
    # a bool is an int in Python; True must not pass as an order of 1
    for build in (lambda: build_ground_ops(0.3, n_modes), lambda: build_single_mode_ops(0, 1.0, n_modes)):
        with pytest.raises(ValueError, match="n_modes must be an integer >= 1"):
            build()


@pytest.mark.parametrize("mode", [1.5, 2.0, True, False, "1", None, -1])
def test_single_mode_builder_refuses_non_integer_modes(mode):
    with pytest.raises(ValueError, match=r"mode index must be nonnegative and an integer, got "):
        build_single_mode_ops(mode, 1.0, 16)


def test_single_mode_builder_accepts_numpy_integer_modes():
    want = build_single_mode_ops(2, 1.0, 16)
    got = build_single_mode_ops(np.int64(2), 1.0, 16)
    assert np.array_equal(got.Lplus, want.Lplus) and np.array_equal(got.Lminus, want.Lminus)


def test_builders_accept_the_smallest_orders():
    assert build_ground_ops(0.0, 1).Lplus.shape == (1, 1)
    assert build_single_mode_ops(0, 1.0, 1).Lminus.shape == (1, 1)
    assert np.array_equal(build_ground_ops(0.0, np.int64(4)).M, [1.0, 2.0, 3.0, 4.0])


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


@pytest.mark.parametrize("n_modes", [128, 512])
@pytest.mark.parametrize("p", [0.3, 0.6])
def test_commutators_bitwise_whole_matrix_scaling(p, n_modes):
    # reference: M^-1 L+- scaled whole, then the inner blocks of the products read
    inner = 64
    ops = build_ground_ops(p, n_modes)

    def block(x, y):
        return float(np.max(np.abs(x[:inner] @ y[:, :inner] - y[:inner] @ x[:, :inner])))

    minv = 1.0 / ops.M
    want = (block(ops.Lplus, ops.Lminus), block(minv[:, None] * ops.Lplus, minv[:, None] * ops.Lminus))
    assert np.array_equal(commutators(ops, inner), want)


def test_commutators_vanish_on_inner_block():
    ops = build_ground_ops(0.5, 128)
    c1, c2 = commutators(ops, 64)
    assert c1 <= 1e-8
    assert c2 <= 1e-8
    with pytest.raises(ValueError):
        commutators(ops, 100)


@short_truncation
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_ladder_check_requires_three_modes(p):
    # at N = 2 and p = 0 v1 = (0, 0) and its residual was 0/0
    for n_modes in (1, 2):
        with pytest.raises(ValueError, match="n_modes >= 3"):
            ladder_check(build_ground_ops(p, n_modes), 1)
    report = ladder_check(build_ground_ops(p, 3), 1)
    assert np.all(np.isfinite(report.eigen_residuals))
    assert np.isfinite(report.v1_shift_angle)


@short_truncation
def test_suite_helpers_reject_out_of_range_orders():
    # each would otherwise end in NaN residuals, empty arrays or numpy's
    # zero-size error
    ops = build_ground_ops(0.3, 64)
    for call, match in (
        (lambda: ladder_check(build_ground_ops(0.3, 4)), "m_max must lie in 1..N/2"),
        (lambda: ladder_check(ops, m_max=33), "m_max must lie in 1..N/2"),
        (lambda: ladder_check(ops, m_max=0), "m_max must lie in 1..N/2"),
        (lambda: mu_ladder(ops, -1), "m_max must be >= 0"),
        (lambda: commutators(build_ground_ops(0.5, 128), 0), "inner block must lie in 1..N/2"),
    ):
        with pytest.raises(ValueError, match=match) as err:
            call()
        assert "\n" not in str(err.value)
    # the bounds themselves are accepted
    assert ladder_check(ops, m_max=32).eigen_residuals.shape == (32,)
    assert mu_ladder(ops, 0).residuals.shape == (1,)
    assert commutators(build_ground_ops(0.5, 128), 1)[0] <= 1e-8


@short_truncation
@pytest.mark.parametrize("n_modes", [8, 16, 128, 512])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.6, 0.9, 0.95])
def test_power_table_is_bitwise_elementwise_power(p, n_modes):
    # reference: p raised element-wise over the N x N exponent grids, and
    # L+- = 2(T - H) - M +- w w^T with w = M A(p), each term a dense N x N array
    n = np.arange(n_modes)
    toeplitz = p ** np.abs(np.subtract.outer(n, n))
    hankel = p ** (np.add.outer(n, n) + 2.0)
    w = (n + 1) * ((1.0 - p * p) * p**n)
    symmetric = 2.0 * (toeplitz - hankel) - np.diag(n + 1.0)
    ops = build_ground_ops(p, n_modes)
    assert np.array_equal(ops.Lplus, symmetric + np.outer(w, w))
    assert np.array_equal(ops.Lminus, symmetric - np.outer(w, w))
    assert np.array_equal(_toeplitz_core(p, n_modes), toeplitz - hankel)


@pytest.mark.parametrize("n_modes", [8, 16, 128, 512])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_single_mode_assembly_is_bitwise_diag_construction(mode, n_modes):
    # reference: c^2 (diag + band) and c^2 (diag - band), each term a dense N x N array
    n = np.arange(n_modes)
    symmetric = np.diag(2.0 * np.minimum(n, mode) + 1.0 - n)
    i = np.arange(2 * mode + 1)
    coupling = np.zeros((n_modes, n_modes))
    coupling[i, 2 * mode - i] = np.minimum(i, 2 * mode - i) + 1.0
    for c in (1.0, 0.7, -1.3):
        ops = build_single_mode_ops(mode, c, n_modes)
        assert np.array_equal(ops.Lplus, c**2 * (symmetric + coupling))
        assert np.array_equal(ops.Lminus, c**2 * (symmetric - coupling))
        assert np.array_equal(ops.M, n + 1.0)


def test_toeplitz_core_entries():
    t_mat = _toeplitz_core(0.5, 6)
    assert t_mat[2, 4] == pytest.approx(0.5**2 - 0.5**8)
    np.testing.assert_allclose(t_mat, t_mat.T, atol=0)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
def test_ladder_structure(p):
    report = ladder_check(build_ground_ops(p, 192))
    assert report.commutation_residual_S <= 1e-11
    assert report.commutation_residual_Sstar <= 1e-11
    assert report.v1_residual <= 1e-10
    assert report.v1_shift_angle <= 1e-9
    assert np.max(report.eigen_residuals) <= 1e-9


def test_ladder_first_vector_at_p_zero():
    # 2T(0) - M = diag(1, 0, -1, -2, ...), so the eigenvalue -1 eigenvector
    # degenerates to e_2 and the closed form must stay regular at p = 0
    report = ladder_check(build_ground_ops(0.0, 32))
    assert report.v1_residual <= 1e-14


@pytest.mark.parametrize("p", [0.2, 0.5])
def test_mu_ladder(p):
    report = mu_ladder(build_ground_ops(p, 256), 8)
    np.testing.assert_allclose(report.mus, 1.0 / (np.arange(9) + 1.0))
    # the {M^j A} basis is badly conditioned at high m and small p
    assert np.max(report.residuals) <= 1e-8
    # m = 1: v = MA - (1+p^2)/(1-p^2) A
    c0, c1 = report.coefficients[1]
    assert c1 == 1.0
    assert c0 == pytest.approx(-(1 + p * p) / (1 - p * p), rel=1e-9)


def test_mu_ladder_second_vector_coefficients():
    # m = 2: v = M^2 A - 3(1+p^2)/(1-p^2) MA + 2(1+p^2+p^4)/(1-p^2)^2 A
    p = 0.4
    report = mu_ladder(build_ground_ops(p, 256), 3)
    c0, c1, c2 = report.coefficients[2]
    assert c2 == 1.0
    assert c1 == pytest.approx(-3 * (1 + p * p) / (1 - p * p), rel=1e-8)
    assert c0 == pytest.approx(2 * (1 + p * p + p**4) / (1 - p * p) ** 2, rel=1e-8)


def _bumped(ops, u, size):
    """The pair with the symmetric bump size u u^T added to both operators,
    so that L0 = (L+ + L-)/2 gains it and the coupling does not."""
    bump = size * np.outer(u, u)
    return OperatorPair(ops.Lplus + bump, ops.Lminus + bump, ops.p)


def _ladder_residual_reference(ops, v, m):
    """||L0 v + m v|| / ||v|| with L0 = (L+ + L-)/2 formed whole, one vector at a time."""
    ladder_op = ops.Lplus + ops.Lminus
    ladder_op *= 0.5
    return np.linalg.norm(ladder_op @ v + m * v) / np.linalg.norm(v)


@pytest.mark.parametrize("target", [1, 4, 10])
def test_ladder_block_matches_per_vector_reference(target):
    # v^m = S^{m-1} v1 starts at index m - 1.  A bump u u^T with u in the
    # first ``target`` coordinates, orthogonal there to v^1 .. v^{target-1},
    # breaks the eigen-relation of v^target alone: later vectors vanish on u's
    # support.  Only that entry moves, to the per-vector reference's value
    p, n_modes, m_max = 0.6, 128, 10
    ops = build_ground_ops(p, n_modes)
    before = ladder_check(ops, m_max).eigen_residuals
    v1 = linearized._first_ladder_vector(p, n_modes)
    vecs = [np.concatenate([np.zeros(m), v1[: n_modes - m]]) for m in range(m_max)]
    head = np.stack([v[:target] for v in vecs[: target - 1]] + [np.zeros(target)])
    u = np.zeros(n_modes)
    u[:target] = np.linalg.svd(head)[2][-1]  # the null direction of the earlier vectors
    bumped = _bumped(ops, u, 1e-3)
    after = ladder_check(bumped, m_max).eigen_residuals
    others = np.arange(m_max) != target - 1
    assert np.max(np.abs(after[others] - before[others])) <= 1e-13
    want = _ladder_residual_reference(bumped, vecs[target - 1], target)
    assert want > 1e-7
    assert after[target - 1] == pytest.approx(want, rel=1e-10, abs=0.0)


def _mu_residual_reference(ops, m):
    """The m-th mu-ladder residual, every product with T a matrix-vector one."""
    t_mat = ops.Lplus + ops.Lminus
    t_mat.flat[:: ops.n_modes + 1] += 2.0 * ops.M
    t_mat *= 0.25
    basis = [ground_amplitudes(ops.p, ops.n_modes)]
    for _ in range(m):
        basis.append(ops.M * basis[-1])
    mu = 1.0 / (m + 1)
    cols = np.stack([t_mat @ v - mu * ops.M * v for v in basis], axis=1)
    sol, *_ = np.linalg.lstsq(cols[:, :m], -cols[:, m], rcond=None)
    vec = sum(x * v for x, v in zip(np.append(sol, 1.0), basis))
    return np.linalg.norm(t_mat @ vec - mu * ops.M * vec) / np.linalg.norm(ops.M * vec)


def _mu_ladder_formed_reference(ops, m_max):
    """mu_ladder with T = (L+ + L- + 2M)/4 formed whole and applied to the
    basis and to the ladder vectors: its coefficients, residuals and the
    condition number of each least-squares matrix (1 for m = 0)."""
    t_mat = ops.Lplus + ops.Lminus
    t_mat.flat[:: ops.n_modes + 1] += 2.0 * ops.M
    t_mat *= 0.25
    powers = [ground_amplitudes(ops.p, ops.n_modes)]  # M^j A, j = 0 .. m_max + 1
    for _ in range(m_max + 1):
        powers.append(ops.M * powers[-1])
    powers = np.stack(powers, axis=1)
    basis = powers[:, :-1]
    t_basis = t_mat @ basis
    mus = 1.0 / np.arange(1.0, m_max + 2)
    coeffs = np.identity(m_max + 1)
    conds = np.ones(m_max + 1)
    for m in range(1, m_max + 1):
        cols = t_basis[:, : m + 1] - mus[m] * powers[:, 1 : m + 2]
        coeffs[:m, m], *_ = np.linalg.lstsq(cols[:, :m], -cols[:, m], rcond=None)
        conds[m] = np.linalg.cond(cols[:, :m])
    vecs = basis @ coeffs
    weighted = ops.M[:, None] * vecs
    residuals = np.linalg.norm(t_mat @ vecs - mus * weighted, axis=0) / np.linalg.norm(weighted, axis=0)
    return coeffs, residuals, conds


@pytest.mark.parametrize("n_modes", [128, 512])
@pytest.mark.parametrize("p", [0.3, 0.6])
def test_mu_ladder_matches_formed_t_reference(p, n_modes):
    # mu_ladder applies the pair to its basis and never forms T; the numbers
    # agree with T formed whole to rounding.  The two T X differ in their last
    # bits, and the least-squares solve for v^(m) magnifies that by its
    # condition number, 1 at m = 1 and about 1e6 at m = 6 (measured: at most
    # 6 kappa_m eps); the m = 1 and m = 2 coefficients the spectrum verdict
    # reads stay within 1e-13
    ops = build_ground_ops(p, n_modes)
    report = mu_ladder(ops, 6)
    coeffs, residuals, conds = _mu_ladder_formed_reference(ops, 6)
    for m, got in enumerate(report.coefficients):
        rtol = 1e-13 if m <= 2 else 1e-14 * conds[m]
        np.testing.assert_allclose(got, coeffs[: m + 1, m], rtol=rtol, atol=0.0)
    np.testing.assert_allclose(report.residuals, residuals, rtol=0.0, atol=1e-11)


def test_mu_ladder_forms_no_square_matrix():
    # T is applied to the basis, never formed: one N x N float64 array is 2 MiB
    ops = build_ground_ops(0.6, 512)
    tracemalloc.start()
    try:
        mu_ladder(ops, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mu_ladder_block_matches_per_vector_reference():
    # a bump along u, orthogonal to A, MA, .., M^{m_max-1} A, leaves every
    # least-squares problem but the last one as it was: only v^(m_max)'s
    # residual moves, to the per-vector reference's value
    p, n_modes, m_max = 0.5, 128, 3
    ops = build_ground_ops(p, n_modes)
    before = mu_ladder(ops, m_max).residuals
    powers = ground_amplitudes(p, n_modes)[:, None] * ops.M[:, None] ** np.arange(m_max + 1)
    q, _ = np.linalg.qr(powers[:, :m_max])
    u = powers[:, m_max] - q @ (q.T @ powers[:, m_max])
    u -= q @ (q.T @ u)
    u /= np.linalg.norm(u)
    bumped = _bumped(ops, u, 1e-3)
    after = mu_ladder(bumped, m_max).residuals
    assert np.max(np.abs(after[:m_max] - before[:m_max])) <= 1e-12
    want = _mu_residual_reference(bumped, m_max)
    assert want > 1e-6
    assert after[m_max] == pytest.approx(want, rel=1e-10, abs=0.0)


def test_solvability_inner_product():
    # L+ A = 2MA gives <L+^{-1} MA, MA> = <A, MA>/2 = Q(A)/2 = 1/2
    p, n_modes = 0.4, 200
    ops = build_ground_ops(p, n_modes)
    weighted = ops.M * ground_amplitudes(p, n_modes)
    sol, *_ = np.linalg.lstsq(ops.Lplus, weighted, rcond=None)
    assert sol @ weighted == pytest.approx(0.5, abs=1e-9)


def test_ladder_checks_require_ground_state():
    ops = build_single_mode_ops(0, 1.0, 16)
    for call in (ladder_check, lambda pair: mu_ladder(pair, 2)):
        with pytest.raises(ValueError, match="defined for ground-state operators"):
            call(ops)


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
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
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


@pytest.mark.parametrize(("n_max", "limit_mib"), [(50, 10.5), (MAX_IDENTITY_ORDER, 13.0)])
def test_appendix_identities_peak_near_tail_bound(n_max, limit_mib):
    # p = 0.9948 is about the largest p whose kmax fits MAX_TAIL_TERMS; the
    # (n_max + 1) x kmax temporaries of the folded sums set the peak (9.8 and
    # 12.4 MiB measured), the kernel rows hold (n_max + 1) x span, about half
    tracemalloc.start()
    try:
        appendix_identities(0.9948, n_max)
        peak = tracemalloc.get_traced_memory()[1]
        # p = 0.995 is refused before any temporary
        tracemalloc.reset_peak()
        with pytest.raises(ValueError, match="tails of"):
            appendix_identities(0.995, n_max)
        refused_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20
    assert refused_peak < 2**20


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5])
def test_appendix_identities_refuses_p_outside_the_open_interval(p):
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
        appendix_identities(p, 50)


@pytest.mark.parametrize("n_max", [-1, 1.5, MAX_IDENTITY_ORDER + 1, True])
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


def test_kernel_total_is_summed_once_per_order():
    # the exact integer identity does not depend on p: a second p at the same
    # n_max reads its error from the cache
    linearized._kernel_total_error.cache_clear()
    assert appendix_identities(0.3, 20)["kernel_total"] == 0.0
    assert appendix_identities(0.6, 20)["kernel_total"] == 0.0
    info = linearized._kernel_total_error.cache_info()
    assert (info.hits, info.misses) == (1, 1)


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
    # the truncation grows like 1 / (1 - p); bounded by MAX_TAIL_TERMS, not by memory
    with pytest.raises(ValueError):
        mode_energy_relation(1.0 - 1e-12)


def test_truncation_tail_warning():
    with pytest.warns(UserWarning):
        build_ground_ops(0.9, 32)
