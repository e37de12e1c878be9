"""Second-variation operators L+/-, their spectra and algebraic structure.

Around a real stationary state A with frequency lambda, the functional
K = H/2 - lambda Q expands as K(A + a + ib) - K(A) = <L+ a, a> + <L- b, b> +
cubic terms.  Both operators are one symmetric part plus or minus one
coupling.  For the ground state A(p),

    L+- = L0 +- w w^T,   L0 = 2 T(p) - M,   w = M A(p),

with T(p)_{nj} = p^{|n-j|} - p^{n+j+2} (``toeplitz_core``), M = diag(n+1), and
L0 the ladder operator of ``ladder_check``; for a single-mode state L0 is
diagonal and the coupling an anti-diagonal band.  This module builds the
dense truncations and verifies the exactly-known spectra, the shift-operator
ladder that locates the negative eigenvalues at the negative integers, the
commutation relations, coercivity on the symplectically orthogonal subspace,
and the closed-form summation identities these facts rest on.

``toeplitz_core`` evaluates the powers p^0 .. p^{2N} once and indexes that
table: raising p element-wise over the N x N exponent grids gives bitwise
the same entries at several times the cost, most of it in underflowing
powers.  ``spectrum(mat, count)`` returns the eigenvalues of one operator,
optionally only the top ``count``, which is all the spectrum suite reports.

The stability problem P = M^-1 L- M^-1 L+ is nonsymmetric, but a
constrained maximiser of the energy has L- <= 0, so -L- = X X^T with X of
full column rank r.  Then P = -(M^-1 X)(X^T M^-1 L+), and since eig(UV) =
eig(VU) its spectrum is that of the r x r symmetric matrix -Y^T L+ Y,
Y = M^-1 X, plus N - r zeros.  It is real, so stability is the sign of real
eigenvalues.  ``stability_spectrum`` takes X from a pivoted Cholesky
factorisation of -L- and certifies it on every call: the trailing Schur
complement the factorisation leaves out must be at rounding level.  When it
is not (an indefinite L-, as for the single-mode states above the lowest),
the nonsymmetric eigenvalues of P are computed instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .state import ground_amplitudes, ground_derivative

__all__ = [
    "OperatorPair",
    "StabilityReport",
    "build_ground_ops",
    "build_single_mode_ops",
    "spectrum",
    "stability_spectrum",
    "commutators",
    "toeplitz_core",
    "ladder_check",
    "mu_ladder",
    "coercivity",
    "appendix_identities",
    "mode_energy_relation",
]

#: build_ground_ops warns when the truncation tail p^{N/2} exceeds this
TAIL_TOL = 1e-10
#: eigenvalues of P below this times max |eigenvalue| count as zero
STABILITY_TOL = 1e-8
#: the definite reduction holds when the Schur complement left out of the
#: pivoted Cholesky factor of -L- is below this times max |entry|
_DEFINITE_TOL = 1e-12
#: Philox key of ladder_check's random test vector
LADDER_SEED = 0
#: appendix_identities sums each infinite tail until its terms drop below this
TAIL_EPS = 1e-22
#: most tail terms appendix_identities may sum: it holds (n_max + 1) x kmax
#: temporaries, a 16 MiB peak at n_max = 50 and kmax near this bound (p = 0.995)
MAX_TAIL_TERMS = 10_000
#: largest n_max appendix_identities accepts: its work grows like n_max^2 kmax,
#: and at this order with kmax near MAX_TAIL_TERMS a call takes about 1 s
#: (21 MiB peak)
MAX_IDENTITY_ORDER = 64


@dataclass
class OperatorPair:
    """Dense truncations of L+, L- with the diagonal weight M = diag(n+1)."""

    Lplus: np.ndarray
    Lminus: np.ndarray
    M: np.ndarray  # diagonal entries (n+1)
    p: float | None  # ground-state parameter; None for a single-mode state

    @property
    def n_modes(self) -> int:
        return self.M.size


@dataclass
class StabilityReport:
    omegas: np.ndarray  # nonnegative frequencies of the +-i Omega pairs, ascending
    # eigenvalues Omega^2 of M^-1 L- M^-1 L+ (should be >= 0): real, the r
    # nonzero ones ascending and then N - r exact zeros, when reduction is
    # "definite"; complex and unordered when it is "general"
    p_eigenvalues: np.ndarray
    zero_geometric: int
    jordan_partners: int
    unstable: bool
    reduction: str  # "definite" (certified symmetric solve) or "general"


def build_ground_ops(p: float, n_modes: int) -> OperatorPair:
    """L+-(p) truncated to n_modes; warns when p^{N/2} exceeds TAIL_TOL."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if p > 0.0 and p ** (n_modes / 2) > TAIL_TOL:
        import warnings

        warnings.warn(
            f"truncation tail p^(N/2) = {p ** (n_modes / 2):.2e} exceeds {TAIL_TOL:.1e}",
            stacklevel=2,
        )
    m_diag = np.arange(1.0, n_modes + 1)
    symmetric = 2.0 * toeplitz_core(p, n_modes) - np.diag(m_diag)
    weighted = m_diag * ground_amplitudes(p, n_modes)
    coupling = np.outer(weighted, weighted)
    return OperatorPair(symmetric + coupling, symmetric - coupling, m_diag, p)


def build_single_mode_ops(mode: int, c: float, n_modes: int) -> OperatorPair:
    """L+- for the single-mode state c delta_{n, mode}; requires N > 2 mode."""
    if mode < 0:
        raise ValueError("mode index must be nonnegative")
    if n_modes <= 2 * mode:
        raise ValueError("truncation must exceed twice the mode index")
    n = np.arange(n_modes)
    symmetric = np.diag(2.0 * np.minimum(n, mode) + 1.0 - n)
    # the anti-diagonal i + j = 2 mode, weight min(i, 2 mode - i) + 1
    i = np.arange(2 * mode + 1)
    coupling = np.zeros((n_modes, n_modes))
    coupling[i, 2 * mode - i] = np.minimum(i, 2 * mode - i) + 1.0
    scale = float(c) ** 2
    return OperatorPair(scale * (symmetric + coupling), scale * (symmetric - coupling), n + 1.0, None)


def spectrum(mat: np.ndarray, count: int | None = None) -> np.ndarray:
    """Eigenvalues of the symmetric operator ``mat``, descending, with residual contract.

    With ``count`` given, only the ``count`` largest are computed; the
    residual contract and its scale max |eigenvalue| then refer to those
    only.  ``count=None`` solves for all N.  An eigenpair residual above
    1e-10 max(max |eigenvalue|, 1) raises ``ArithmeticError``.
    """
    n_modes = mat.shape[0]
    if count is None:
        vals, vecs = scipy.linalg.eigh(mat)
    elif 1 <= count <= n_modes:
        vals, vecs = scipy.linalg.eigh(mat, subset_by_index=[n_modes - count, n_modes - 1])
    else:
        raise ValueError(f"count must lie in 1..{n_modes}, got {count}")
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    op_norm = float(np.max(np.abs(vals))) if vals.size else 0.0
    residuals = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    if np.any(residuals > 1e-10 * max(op_norm, 1.0)):
        raise ArithmeticError("eigendecomposition residual contract violated")
    return vals


def stability_spectrum(ops: OperatorPair) -> StabilityReport:
    """Frequencies of the linearized flow from P = M^-1 L- M^-1 L+.

    Eigenvalues of P are Omega^2 = -Lambda^2.  When L- <= 0 (the ground
    state, the lowest single mode) they are real and come from one symmetric
    solve of size rank(L-) (module docstring); a negative one marks
    instability.  When the reduction's certificate fails, the eigenvalues of
    P itself are computed, and a negative real part or a significant
    imaginary part marks instability (or truncation failure).  ``reduction``
    says which solve ran.  For the ground state the kernel structure (three
    eigenvectors, one Jordan partner) is verified explicitly.
    """
    vals = _definite_eigenvalues(ops)
    reduction = "definite"
    if vals is None:
        reduction = "general"
        minv = 1.0 / ops.M
        compose = (minv[:, None] * ops.Lminus) @ (minv[:, None] * ops.Lplus)
        vals = np.linalg.eigvals(compose)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    tol = STABILITY_TOL * scale
    unstable = bool(np.any(vals.real < -tol) or np.any(np.abs(vals.imag) > tol))
    nonzero = vals[np.abs(vals) > tol]
    omegas = np.sort(np.sqrt(np.clip(nonzero.real, 0.0, None)))

    zero_geometric = 0
    jordan = 0
    if ops.p is not None:
        ground = ground_amplitudes(ops.p, ops.n_modes)
        weighted = ops.M * ground
        dground = ground_derivative(ops.p, ops.n_modes)
        # the generator (a, b) -> (L- b, -L+ a) of the linearized flow on the global
        # phase (0, A), the local phase (0, MA) and the parameter direction (A', 0)
        zero_geometric = sum(
            int(np.linalg.norm(mat @ vec) / np.linalg.norm(vec) < 1e-7)
            for mat, vec in ((ops.Lminus, ground), (ops.Lminus, weighted), (ops.Lplus, dground))
        )
        # Jordan partner of (0, A): (-A/2, 0) -> (0, L+ A / 2) = M (0, A)
        jres = np.linalg.norm(0.5 * (ops.Lplus @ ground) - weighted) / np.linalg.norm(weighted)
        if jres < 1e-7:
            jordan = 1
    return StabilityReport(omegas, vals, zero_geometric, jordan, unstable, reduction)


def _definite_eigenvalues(ops: OperatorPair) -> np.ndarray | None:
    """Eigenvalues of P by the definite reduction, or None when its certificate fails.

    dpstrf factors A = -L- in place, Pi^T A Pi = G G^T with rank r.  The
    certificate: no argument error, and the Schur complement left unfactored,
    (Pi^T A Pi)[r:, r:] - G[r:] G[r:]^T, within _DEFINITE_TOL max |A| of zero;
    dpstrf's own stopping rule would pass an indefinite remainder with a small
    diagonal.  The r x r matrix is -Y^T L+ Y with Y = M^-1 Pi G.
    """
    n_modes = ops.n_modes
    buf = np.negative(ops.Lminus, order="F")
    scale = max(float(buf.max()), -float(buf.min()))
    # a semidefinite A has no negative diagonal entry; dpstrf would leave such
    # an entry in the trailing block and fail the certificate there, later
    if np.any(np.diagonal(buf) < -_DEFINITE_TOL * scale):
        return None
    factor, piv, rank, info = scipy.linalg.lapack.dpstrf(buf, lower=1, overwrite_a=1)
    if info < 0:
        return None
    piv -= 1  # LAPACK pivots are 1-based
    lead = factor[:, :rank]  # G; its strict upper triangle still holds entries of A
    lead[~np.tri(n_modes, rank, dtype=bool)] = 0.0
    tail = piv[rank:]
    # the unfactored block, rebuilt from L- because dpstrf may have updated it in part
    trailing = -ops.Lminus[np.ix_(tail, tail)] - lead[rank:] @ lead[rank:].T
    if not np.all(np.abs(trailing) <= _DEFINITE_TOL * scale):
        return None
    y = np.empty((n_modes, rank))
    y[piv] = lead
    del buf, factor, lead
    y /= ops.M[:, None]
    reduced = y.T @ (ops.Lplus @ y)
    del y
    vals = -scipy.linalg.eigvalsh(reduced, overwrite_a=True, check_finite=False)[::-1]
    return np.concatenate([vals, np.zeros(n_modes - rank)])


def commutators(ops: OperatorPair, inner: int) -> tuple[float, float]:
    """Max |entry| of [L+, L-] and [M^-1 L+, M^-1 L-] over the leading block.

    The inner block (inner <= N/2) keeps truncation-tail contamination below
    tolerance; the operators commute exactly in the untruncated system.
    """
    if not 1 <= inner <= ops.n_modes // 2:
        raise ValueError(f"inner block must lie in 1..N/2 = {ops.n_modes // 2}, got {inner}")

    def block(x: np.ndarray, y: np.ndarray) -> float:
        # only the leading inner x inner block of [x, y] is formed
        return float(np.max(np.abs(x[:inner] @ y[:, :inner] - y[:inner] @ x[:, :inner])))

    lp, lm = ops.Lplus, ops.Lminus
    minv = 1.0 / ops.M
    return block(lp, lm), block(minv[:, None] * lp, minv[:, None] * lm)


def toeplitz_core(p: float, n_modes: int) -> np.ndarray:
    """T(p) with entries p^{|n-j|} - p^{n+j+2}; on the constrained subspace
    B+- = 2T and the negative spectrum of L+- equals that of 2T - M."""
    n = np.arange(n_modes)
    powers = p ** np.arange(2 * n_modes + 1.0)  # every exponent 0 .. 2N the entries use
    return powers[np.abs(np.subtract.outer(n, n))] - powers[np.add.outer(n, n) + 2]


def _first_ladder_vector(p: float, n_modes: int) -> np.ndarray:
    """Closed-form eigenvector of 2T - M for eigenvalue -1 (regular at p = 0)."""
    v = np.zeros(n_modes)
    v[0] = p * p
    coeff = 1.0 - p * p
    # entries (1-p^2)[n(1-p^2) - (1+p^2)] p^{n-2}; the n = 1 entry simplifies
    # to -2p(1-p^2), which is regular at p = 0
    if n_modes > 1:
        v[1] = -2.0 * p * coeff
    if n_modes > 2:
        m = np.arange(2, n_modes)
        v[2:] = coeff * (m * (1.0 - p * p) - (1.0 + p * p)) * p ** (m - 2)
    return v


@dataclass
class LadderReport:
    commutation_residual_S: float
    commutation_residual_Sstar: float
    v1_residual: float
    v1_shift_angle: float  # angle between S* v1 and A'(p)
    eigen_residuals: np.ndarray  # ||(2T - M) v_m + m v_m|| / ||v_m||, m = 1..m_max


def ladder_check(p: float, n_modes: int, m_max: int = 10) -> LadderReport:
    """Verify the creation/annihilation structure of 2T(p) - M.

    On vectors orthogonal to {A(p), M A(p)} the shift S and left-shift S*
    intertwine 2T - M with itself -+ I; iterating S on the closed-form first
    eigenvector generates eigenvalue -m for every m.  The m-th vector is
    shifted m - 1 places, so m_max is at most N/2: beyond that the truncation
    cuts into the shifted vectors (and past N they vanish).
    """
    if not 1 <= m_max <= n_modes // 2:
        raise ValueError(f"m_max must lie in 1..N/2 = {n_modes // 2}, got {m_max}")
    t_mat = toeplitz_core(p, n_modes)
    ladder_op = 2.0 * t_mat - np.diag(np.arange(1, n_modes + 1, dtype=np.float64))
    ground = ground_amplitudes(p, n_modes)
    weighted = np.arange(1, n_modes + 1) * ground

    rng = np.random.default_rng(np.random.Philox(key=LADDER_SEED))
    half = n_modes // 2
    a = np.zeros(n_modes)
    a[:half] = rng.standard_normal(half)
    # project onto the orthogonal complement of {A, MA} within the support window
    basis = np.stack([ground[:half], weighted[:half]])
    q, _ = np.linalg.qr(basis.T)
    a[:half] -= q @ (q.T @ a[:half])

    shifted = np.concatenate([[0.0], a[:-1]])  # S a
    lhs1 = ladder_op @ shifted
    rhs1 = np.concatenate([[0.0], (ladder_op @ a - a)[:-1]])  # S (2T - M - I) a
    res1 = np.linalg.norm(lhs1 - rhs1) / max(np.linalg.norm(a), 1e-300)

    unshifted = np.concatenate([a[1:], [0.0]])  # S* a
    lhs2 = ladder_op @ unshifted
    rhs2 = (ladder_op @ a + a)[1:]  # S* (2T - M + I) a
    res2 = np.linalg.norm(lhs2 - np.concatenate([rhs2, [0.0]])) / max(np.linalg.norm(a), 1e-300)

    v1 = _first_ladder_vector(p, n_modes)
    v1_res = np.linalg.norm(ladder_op @ v1 + v1) / np.linalg.norm(v1)

    dground = ground_derivative(p, n_modes)
    star = np.concatenate([v1[1:], [0.0]])
    if np.linalg.norm(star) == 0.0 or np.linalg.norm(dground) == 0.0:
        angle = 0.0
    else:
        unit = dground / np.linalg.norm(dground)
        rejection = star - (star @ unit) * unit
        angle = float(np.arcsin(min(1.0, np.linalg.norm(rejection) / np.linalg.norm(star))))

    eigen_res = []
    v = v1.copy()
    for m in range(1, m_max + 1):
        eigen_res.append(np.linalg.norm(ladder_op @ v + m * v) / np.linalg.norm(v))
        v = np.concatenate([[0.0], v[:-1]])  # v^{m+1} = S v^{m}
    return LadderReport(res1, res2, v1_res, angle, np.array(eigen_res))


@dataclass
class MuLadderReport:
    mus: np.ndarray  # 1/(m+1)
    residuals: np.ndarray  # ||T v - mu M v|| / ||M v||
    coefficients: list[np.ndarray]  # expansion of v^(m) over {M^j A}, x_m = 1


def mu_ladder(p: float, m_max: int, n_modes: int) -> MuLadderReport:
    """Eigenvectors of T(p) v = mu M v in the polynomial ladder span{M^j A}.

    v^(m) = M^m A - sum_{j<m} alpha_j M^j A is fixed by the eigen-condition
    with mu_m = 1/(m+1); the coefficients are obtained from a least-squares
    solve in the ladder basis and the residual is verified on the full
    truncation.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    t_mat = toeplitz_core(p, n_modes)
    m_diag = np.arange(1, n_modes + 1, dtype=np.float64)
    ground = ground_amplitudes(p, n_modes)
    basis = [ground.copy()]
    for _ in range(m_max):
        basis.append(m_diag * basis[-1])
    t_basis = [t_mat @ v for v in basis]

    mus, residuals, coeff_list = [], [], []
    for m in range(m_max + 1):
        mu = 1.0 / (m + 1)
        cols = np.stack(
            [t_basis[j] - mu * m_diag * basis[j] for j in range(m + 1)], axis=1
        )
        if m == 0:
            x = np.array([1.0])
        else:
            sol, *_ = np.linalg.lstsq(cols[:, :m], -cols[:, m], rcond=None)
            x = np.concatenate([sol, [1.0]])
        vec = sum(x[j] * basis[j] for j in range(m + 1))
        res = np.linalg.norm(t_mat @ vec - mu * m_diag * vec) / max(
            np.linalg.norm(m_diag * vec), 1e-300
        )
        mus.append(mu)
        residuals.append(res)
        coeff_list.append(x)
    return MuLadderReport(np.array(mus), np.array(residuals), coeff_list)


def coercivity(ops: OperatorPair) -> tuple[float, float]:
    """Largest h^{1/2}-Rayleigh quotients of L+- on the symplectically
    orthogonal subspace {<MA, a> = <MA', a> = 0}; both must be negative."""
    if ops.p is None:
        raise ValueError("coercivity is defined for ground-state operators")
    n_modes = ops.n_modes
    ground = ground_amplitudes(ops.p, n_modes)
    dground = ground_derivative(ops.p, n_modes)
    w_half = np.sqrt(ops.M)  # W^{1/2} with W = diag(n+1)
    constraints = np.stack([(ops.M * ground) / w_half, (ops.M * dground) / w_half])
    null = scipy.linalg.null_space(constraints)
    out = []
    for mat in (ops.Lplus, ops.Lminus):
        scaled = (mat / w_half[:, None]) / w_half[None, :]
        projected = null.T @ scaled @ null
        vals = scipy.linalg.eigvalsh(projected)
        out.append(float(vals[-1]))
    return out[0], out[1]


def appendix_identities(p: float, n_max: int) -> dict[str, float]:
    """Max relative error of each closed-form summation identity vs direct sums.

    Infinite tails are summed until the geometric term drops below TAIL_EPS;
    a p so close to 1 that this takes more than MAX_TAIL_TERMS terms raises
    ``ValueError``, as does an n_max that is not an integer in
    0..MAX_IDENTITY_ORDER.
    Keys: geometric_sum, geometric_weighted, kernel_row_le, kernel_row_ge,
    kernel_total, folded_sum, folded_weighted.  kernel_total is the largest
    absolute error of an exact integer identity, so it must be 0.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max <= MAX_IDENTITY_ORDER:
        raise ValueError(f"n_max must be an integer in 0..{MAX_IDENTITY_ORDER}, got {n_max!r}")
    kmax = max(200, int(np.ceil(np.log(TAIL_EPS) / np.log(p))) + 2 * n_max + 4)
    if kmax > MAX_TAIL_TERMS:
        raise ValueError(f"tails of {kmax} terms at p = {p}; at most {MAX_TAIL_TERMS}")
    # every exponent below is at most n_max + 2 kmax
    powers = p ** np.arange(2.0 * kmax + n_max + 1)
    q = p * p
    n = np.arange(n_max + 1)
    col = n[:, None]

    def rel(err: np.ndarray, scale: np.ndarray) -> np.ndarray:
        return err / np.maximum(np.abs(scale), 1e-300)

    # finite geometric sums over k = 0..n are the partial sums in n
    even = powers[2 * n]
    closed = (1.0 - powers[2 * n + 2]) / (1.0 - q)
    geometric_sum = rel(np.abs(np.cumsum(even) - closed), closed)
    closed = q * (1.0 - (n + 1) * even + n * powers[2 * n + 2]) / (1.0 - q) ** 2
    geometric_weighted = rel(np.abs(np.cumsum(n * even) - closed), np.maximum(closed, 1.0))

    # folded sums over k = 1..kmax-1, one row per n
    k = np.arange(1, kmax)
    terms = powers[k + np.abs(col - k)]
    closed = (q + n * (1.0 - q)) / (1.0 - q) * powers[n]
    folded_sum = rel(np.abs(terms.sum(axis=1) - closed), closed)
    closed = (2 * q + n * (1.0 - p**4) + n * n * (1.0 - q) ** 2) / (2.0 * (1.0 - q) ** 2) * powers[n]
    folded_weighted = rel(np.abs((k * terms).sum(axis=1) - closed), closed)

    # kernel rows sum_k S p^{n+2k-j} with S = min(n, j, k, n+k-j) + 1 over
    # k >= max(0, j-n); one pass per n = m over the (j, k) grid
    j = col
    k = np.arange(kmax)
    k_int = np.arange(2 * n_max + 1)
    kernel_rel = np.empty((n_max + 1, n_max + 1))  # [m, j]
    total_err = np.empty(n_max + 1, dtype=np.int64)
    for m in range(n_max + 1):
        before = k < j - m  # below the range of row j > m
        coeff = np.where(before, 0.0, np.minimum(np.minimum(m, j), np.minimum(k, m + k - j)) + 1.0)
        direct = np.sum(coeff * powers[np.where(before, 0, m + 2 * k - j)], axis=1)
        closed = (powers[np.abs(m - n)] - powers[2 + n + m]) / (1.0 - q) ** 2  # j = 0..n_max
        kernel_rel[m] = rel(np.abs(direct - closed), closed)
        # exact integer identity for j >= m: sum_{k=0}^{m+j} S = (1+j)(1+m)
        rows = j[m:]
        coeff_int = np.minimum(np.minimum(m, rows), np.minimum(k_int, m + rows - k_int)) + 1
        totals = np.sum(np.where(k_int <= m + rows, coeff_int, 0), axis=1)
        total_err[m] = np.max(np.abs(totals - (1 + n[m:]) * (1 + m)))

    return {
        "geometric_sum": float(np.max(geometric_sum)),
        "geometric_weighted": float(np.max(geometric_weighted)),
        "kernel_row_le": float(np.max(kernel_rel[np.tril_indices(n_max + 1)])),
        "kernel_row_ge": float(np.max(kernel_rel[np.triu_indices(n_max + 1)])),
        "kernel_total": float(np.max(total_err)),
        "folded_sum": float(np.max(folded_sum)),
        "folded_weighted": float(np.max(folded_weighted)),
    }


def mode_energy_relation(p: float) -> dict[str, float]:
    """<MA'(p), A(p)> (must vanish) and the closed form of <MA'(p), MA(p)>.

    The inner product equals 2p / (1-p^2)^2, which is half the p-derivative
    of the h^1 mass (1+p^2)/(1-p^2) and is strictly positive for p > 0.  The
    related series sum (n+1)^2 p^{2n} [n(1-p^2) - 2p^2] = 2p^2 / (1-p^2)^3 is
    checked as well; it differs from the inner product by a factor p/(1-p^2).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    # enough modes that the truncated sums are exact to double precision
    n_modes = max(64, int(np.ceil(np.log(1e-16) / np.log(p))) + 8)
    m_diag = np.arange(1, n_modes + 1, dtype=np.float64)
    n = np.arange(n_modes, dtype=np.float64)
    ground = ground_amplitudes(p, n_modes)
    dground = ground_derivative(p, n_modes)
    ortho = float((m_diag * dground) @ ground)
    inner = float((m_diag * dground) @ (m_diag * ground))
    expected = 2.0 * p / (1.0 - p * p) ** 2
    series = float(np.sum(m_diag**2 * p ** (2 * n) * (n * (1 - p * p) - 2 * p * p)))
    series_expected = 2.0 * p * p / (1.0 - p * p) ** 3
    return {
        "orthogonality": ortho,
        "inner": inner,
        "expected_inner": expected,
        "inner_rel_err": abs(inner - expected) / expected,
        "series_rel_err": abs(series - series_expected) / series_expected,
    }
