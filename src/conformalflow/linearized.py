"""Second-variation operators L+/-, their spectra and algebraic structure.

Around a real stationary state A with frequency lambda, the functional
K = H/2 - lambda Q expands as K(A + a + ib) - K(A) = <L+ a, a> + <L- b, b> +
cubic terms.  Both operators are one symmetric part plus or minus one
coupling.  For the ground state A(p),

    L+- = L0 +- w w^T,   L0 = 2 T(p) - M,   w = M A(p),

with T(p)_{nj} = p^{|n-j|} - p^{n+j+2}, M = diag(n+1), and L0 the ladder
operator of ``ladder_check``; for a single-mode state L0 is diagonal and the
coupling an anti-diagonal band.  This module builds the dense truncations and
verifies the exactly-known spectra, the shift-operator ladder that locates
the negative eigenvalues at the negative integers, the commutation
relations, and the closed-form summation identities these facts rest on.

``_toeplitz_core`` evaluates the powers p^0 .. p^{2N} once and reads both
terms of T as sliding windows of that table: raising p element-wise over the
N x N exponent grids gives bitwise the same entries at several times the
cost, most of it in underflowing powers.  L0 and then L+ are formed in place
on that array and L- = L0 - w w^T beside it, bitwise equal to the sums of
dense terms.

Every symmetric eigenvalue the module returns, of L+- and of the stability
problem, comes from one route, ``spectrum(mat, count)``: the top ``count``
eigenvalues (all N by default) under a residual contract.  The eigenvectors
behind the top decay like poly(n) p^n, so that top is first taken from a
leading K x K block, K = max(64, 2 count + 2) doubling while K < N/2, under
a certificate on the whole matrix (Kahan's residual bound, a Gershgorin
bound, Haynsworth's inertia additivity and Weyl's inequality;
``_leading_top``), and from the whole matrix when no K certifies.  Each solve
is one ``numpy.linalg.eigh`` of the block or matrix, whose top ``count`` (and
next) columns are kept.  For L+ at p = 0.3 and N = 512 the top 12 take about
0.8 ms from a block of order 64; solved whole (p >= 0.8, or a matrix without
decay) they take about 45 ms at N = 512 and 0.30 s at N = 1024, since eigh
computes every eigenpair (one BLAS thread).

The stability problem P = M^-1 L- M^-1 L+ is nonsymmetric, but the ground
state's carries the paper's supersymmetric structure: with D = M^-1/2,
S0 = D L0 D and v = M^1/2 A, L0 A = M A makes S0 v = v and |v|^2 = Q(A) = 1,
so P is similar to S- S+ = S0^2 - v v^T, which is 0 on v and S0^2 on v's
complement.  S0 = 2B - I with B = D T D, T = (L0 + M)/2, so
Omega^2 = (2 mu - 1)^2 over the eigenvalues mu of B: the mu-ladder's
1/(m+1), mu = 1 for v and 1/2 for the zero mode A'.  The lowest Omega are
thus the top of the symmetric B, whose eigenvectors decay, and
``stability_spectrum`` takes them through ``spectrum``'s route.  It checks
the structure, symmetry included, on the pair as given, in O(N^2), and a
Bauer-Fike certificate on every call (``_supersymmetric_eigenvalues``); at
N = 512 a block of order 64 certifies at p = 0.3 and one of order 128 at
p = 0.6, and B is solved whole at p >= 0.8, at N = 128 and when all N are
asked for.

The same structure settles coercivity, so no function computes it.  On the
constrained set {<MA, a> = <MA', a> = 0} the coupling w w^T a = MA <MA, a>
vanishes, so both L+- act there as L0, and in the frame u = M^1/2 a the set
is the complement of two eigenvectors of S0: v, with sigma = 1, which the
stability route checks, and M^1/2 A', with sigma = 0, which follows from
L+ A' = 0 (the suite's 3+1 kernel verdict) and <MA, A'> = 0.  The top
h^1/2 quotient <L+- a, a> / <M a, a> there is thus the next eigenvalue
sigma_3 of S0.  The suite certifies the top sigma^2 as {0, 0, 1/9, 1/4, ..};
at each p > 0 ``mu_ladder`` certifies mu = 1/3, which is sigma = -1/3, so
sigma_3 = -1/3 < 0.  At p = 0 the pair is diagonal and
sigma_n = (1 - n)/(1 + n).

Every other pair, and a ground pair whose structure or certificate fails,
takes the general route, which computes all N and sorts and slices like the
first: ``_coupled_order`` reads the order r of the coupled block from the
zero pattern (the smallest r with every off-diagonal nonzero in the leading
r x r block), the nonsymmetric eigenvalues of that block of P are computed,
and the N - r eigenvalues L-_ii L+_ii / M_i^2 of the diagonal tail are
appended in closed form.  The zero pattern is read first, and only a ground
pair whose coupled block is the whole matrix tries the supersymmetric route:
at p = 0 r is 0 and the tail is exact.  For single mode 0 r is 0, for single
modes 1 and 2 it is 3 and 5.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .state import ground_amplitudes, ground_derivative

__all__ = [
    "OperatorPair",
    "StabilityReport",
    "build_ground_ops",
    "build_single_mode_ops",
    "spectrum",
    "stability_spectrum",
    "commutators",
    "ladder_check",
    "mu_ladder",
    "appendix_identities",
    "mode_energy_relation",
]

#: build_ground_ops warns when the truncation tail p^{N/2} exceeds this
TAIL_TOL = 1e-10
#: eigenvalues of P below this times max |eigenvalue| count as zero
STABILITY_TOL = 1e-8
#: the supersymmetric route runs when the coupling residual, the residual of
#: L0 A = M A and the asymmetry of L+ + L-, all in the frame M^-1/2, are within
#: this (measured: at most 7e-16 at p <= 0.9, N = 512 and 1024)
_STRUCTURE_TOL = 1e-12
#: order of the first leading block spectrum tries for the top of a spectrum
_LEADING_MIN = 64
#: Philox key of ladder_check's random test vector
LADDER_SEED = 0
#: appendix_identities sums each infinite tail until its terms drop below this
TAIL_EPS = 1e-22
#: most tail terms appendix_identities may sum: it holds (n_max + 1) x kmax
#: temporaries, a 10 MiB peak at n_max = 50 and kmax near this bound (p = 0.9948;
#: p = 0.995 is refused); also the most modes mode_energy_relation may sum,
#: which rejects p >= 0.9964
MAX_TAIL_TERMS = 10_000
#: largest n_max appendix_identities accepts: its work grows like n_max^2 kmax,
#: and at this order with kmax near MAX_TAIL_TERMS a call takes about 0.3 s
#: (12.4 MiB peak)
MAX_IDENTITY_ORDER = 64


@dataclass
class OperatorPair:
    """Dense truncations of L+, L-; the model's weight M = diag(n+1) follows from their order."""

    Lplus: np.ndarray
    Lminus: np.ndarray
    p: float | None  # ground-state parameter; None for a single-mode state

    @property
    def n_modes(self) -> int:
        return self.Lplus.shape[0]

    @property
    def M(self) -> np.ndarray:
        return np.arange(1.0, self.n_modes + 1)


@dataclass
class StabilityReport:
    omegas: np.ndarray  # frequencies of the nonzero p_eigenvalues, ascending
    # the count lowest eigenvalues Omega^2 of M^-1 L- M^-1 L+ (should be >= 0),
    # zeros included, np.sort-ed (real part first)
    p_eigenvalues: np.ndarray
    zero_geometric: int
    jordan_partners: int
    unstable: bool  # judged on every eigenvalue the route computed
    reduction: str  # "supersymmetric" (certified symmetric solve) or "general"
    # order of the matrix whose eigenvalues were computed: the certified leading
    # block of B = M^-1/2 T M^-1/2 or the whole B, or the coupled block of P
    # when reduction is "general" (the rest is diagonal)
    solved: int


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool, which would pass as 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_order(n_modes: int) -> None:
    if not _is_integer(n_modes) or n_modes < 1:
        raise ValueError(f"n_modes must be an integer >= 1, got {n_modes!r}")


def _toeplitz_core(p: float, n_modes: int) -> np.ndarray:
    """T(p) with entries p^{|n-j|} - p^{n+j+2}, read from one table of powers
    (module docstring); ``build_ground_ops`` forms L0 = 2T - M on it."""
    powers = p ** np.arange(2 * n_modes + 1.0)  # every exponent 0 .. 2N the entries use
    # row n of each is a window of a power vector: p^{|n-j|} from the mirrored
    # p^{N-1} .. p^1 p^0 p^1 .. p^{N-1} read backwards, p^{n+j+2} from p^2 .. p^{2N}
    mirrored = np.concatenate((powers[n_modes - 1 : 0 : -1], powers[:n_modes]))
    toeplitz = sliding_window_view(mirrored, n_modes)[::-1]
    hankel = sliding_window_view(powers[2:], n_modes)
    return toeplitz - hankel


def build_ground_ops(p: float, n_modes: int) -> OperatorPair:
    """L+-(p) truncated to n_modes; warns when p^{N/2} exceeds TAIL_TOL."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    _check_order(n_modes)
    if p > 0.0 and p ** (n_modes / 2) > TAIL_TOL:
        import warnings

        warnings.warn(
            f"truncation tail p^(N/2) = {p ** (n_modes / 2):.2e} exceeds {TAIL_TOL:.1e}",
            stacklevel=2,
        )
    m_diag = np.arange(1.0, n_modes + 1)
    lplus = _toeplitz_core(p, n_modes)  # made L0 = 2T - M and then L+ in place
    lplus *= 2.0
    lplus.flat[:: n_modes + 1] -= m_diag
    weighted = m_diag * ground_amplitudes(p, n_modes)
    coupling = np.outer(weighted, weighted)
    lminus = lplus - coupling
    lplus += coupling
    return OperatorPair(lplus, lminus, p)


def build_single_mode_ops(mode: int, c: float, n_modes: int) -> OperatorPair:
    """L+- for the single-mode state c delta_{n, mode}; requires N > 2 mode."""
    if not _is_integer(mode) or mode < 0:
        raise ValueError(f"mode index must be nonnegative and an integer, got {mode!r}")
    _check_order(n_modes)
    if n_modes <= 2 * mode:
        raise ValueError("truncation must exceed twice the mode index")
    n = np.arange(n_modes)
    diagonal = 2.0 * np.minimum(n, mode) + 1.0 - n
    # the anti-diagonal i + j = 2 mode, weight min(i, 2 mode - i) + 1; it
    # crosses the diagonal at (mode, mode), where the two add
    i = np.arange(2 * mode + 1)
    band = np.minimum(i, 2 * mode - i) + 1.0
    scale = float(c) ** 2
    pair = []
    for sign in (1.0, -1.0):
        mat = np.zeros((n_modes, n_modes))
        mat.flat[:: n_modes + 1] = scale * diagonal
        mat[i, 2 * mode - i] = scale * (sign * band)
        mat[mode, mode] = scale * (diagonal[mode] + sign * band[mode])
        pair.append(mat)
    return OperatorPair(*pair, None)


def _coupled_order(*mats: np.ndarray) -> int:
    """Smallest r such that every off-diagonal nonzero of ``mats`` lies in the leading r x r block."""
    n_modes = mats[0].shape[0]
    # the dense operators end the search at their last row or column
    if n_modes and any(np.any(mat[-1, :-1]) or np.any(mat[:-1, -1]) for mat in mats):
        return n_modes
    coupled = np.zeros(n_modes, dtype=bool)
    for mat in mats:
        off = mat != 0.0
        np.fill_diagonal(off, False)
        coupled |= off.any(axis=0) | off.any(axis=1)
    indices = np.flatnonzero(coupled)
    return int(indices[-1]) + 1 if indices.size else 0


def spectrum(mat: np.ndarray, count: int | None = None) -> np.ndarray:
    """Eigenvalues of the symmetric operator ``mat``, descending, with residual contract.

    With ``count`` given, only the ``count`` largest are computed; the
    residual contract and its scale max |eigenvalue| then refer to those
    only.  ``count=None`` solves for all N.  Eigenpair residuals above 1e-10
    max(max |eigenvalue|, 1) raise ``ArithmeticError``.

    The top ``count`` are first sought in the leading K x K blocks,
    K = max(64, 2 count + 2) doubling while K < N/2, and taken only when
    certified on the whole matrix by Kahan's residual bound, a Gershgorin
    bound on the trailing block, Haynsworth's inertia additivity and Weyl's
    inequality (``_leading_top``); when no K certifies, the matrix is solved
    whole.
    """
    return _top_block(mat, count)[0]


def _top_block(mat: np.ndarray, count: int | None) -> tuple[np.ndarray, int]:
    """``spectrum(mat, count)`` and the order of the block it solved: the
    certified leading K, or N for the whole matrix."""
    n_modes = mat.shape[0]
    if count is None:
        count = n_modes
    elif not 1 <= count <= n_modes:
        raise ValueError(f"count must lie in 1..{n_modes}, got {count}")
    found = _leading_top(mat, count)
    if found is not None:
        return found
    # eigh returns all N ascending; the top count are its last columns
    vals, vecs = np.linalg.eigh(mat)
    vals, vecs = vals[n_modes - count :], vecs[:, n_modes - count :]
    residuals = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    if np.any(residuals > _residual_bound(vals)):
        raise ArithmeticError("eigendecomposition residual contract violated")
    return vals[::-1], n_modes


def _residual_bound(vals: np.ndarray) -> float:
    """spectrum's residual contract for the eigenvalues ``vals``."""
    return 1e-10 * max(float(np.max(np.abs(vals))), 1.0)


def _leading_top(mat: np.ndarray, count: int) -> tuple[np.ndarray, int] | None:
    """The ``count`` largest eigenvalues of the symmetric ``mat``, descending,
    and the order K of the certified leading block they came from, or None
    when no leading block certifies.  K doubles from max(64, 2 count + 2)
    while K < N/2: 64 and 128 for N = 510 and 512, also 256 for N = 1024.

    For the leading K x K block A11 with top eigenpairs (mu_i, v_i), the
    certificate on the whole A = [[A11, B], [B^T, A22]] is:
    (i) the v_i zero-padded to length N leave a residual ||A V - V Lambda||_F
    within spectrum's contract, so by Kahan's theorem each mu_i lies that
    close to a distinct eigenvalue of A; (ii) with sigma halfway between
    mu_count and mu_count+1, a Gershgorin lower bound gamma > 0 of
    sigma I - A22 and eps = ||B||_F^2 / gamma: by Haynsworth's inertia
    additivity the eigenvalues of A above sigma are the negative ones of the
    Schur complement sigma I - A11 - B (sigma I - A22)^-1 B^T, which by Weyl's
    inequality lie within eps below those of sigma I - A11, so exactly
    ``count`` of them when mu_count+1 < sigma - eps.  The half gap must exceed
    eps plus the contract, so that the distinct eigenvalues of (i) are the
    ones above sigma.  References: Parlett, The Symmetric Eigenvalue Problem,
    11-5 (Kahan); Haynsworth, Linear Algebra Appl. 1 (1968) 73.
    """
    order = mat.shape[0]
    size = max(_LEADING_MIN, 2 * count + 2)
    while size < order // 2:
        vals, vecs = np.linalg.eigh(mat[:size, :size])
        vals, vecs = vals[size - count - 1 :], vecs[:, size - count - 1 :]
        # the last count + 1 of eigh's ascending output: the top count,
        # descending, and the next below
        top, vecs, below = vals[:0:-1], vecs[:, :0:-1], vals[0]
        bound = _residual_bound(top)
        residual = mat[:, :size] @ vecs
        residual[:size] -= vecs * top
        if np.linalg.norm(residual) <= bound:
            sigma = 0.5 * (top[-1] + below)
            tail = mat[size:, size:]
            diagonal = np.diagonal(tail)
            # row sums of |tail| over 64-row blocks: no (N - K)^2 temporary
            rows = [np.sum(np.abs(tail[i : i + 64]), axis=1) for i in range(0, len(tail), 64)]
            off = np.concatenate(rows) - np.abs(diagonal)
            gamma = float(np.min(sigma - diagonal - off))
            if gamma > 0.0:
                eps = np.linalg.norm(mat[:size, size:]) ** 2 / gamma
                if sigma - below > eps + bound:
                    return top, size
        size *= 2
    return None


def stability_spectrum(ops: OperatorPair, count: int | None = None) -> StabilityReport:
    """The ``count`` lowest eigenvalues of P = M^-1 L- M^-1 L+ (1..N, all N by
    default) and the frequencies of the linearized flow.

    Eigenvalues of P are Omega^2 = -Lambda^2.  ``p_eigenvalues`` holds the
    ``count`` lowest, zeros included, np.sort-ed (real part first), whichever
    route solved them; ``omegas`` the frequencies sqrt(Re) of the nonzero ones
    among them, ascending.  A ground-state pair whose coupled block is the
    whole matrix and whose structure and certificate hold takes the
    "supersymmetric" route (``_supersymmetric_eigenvalues``), which computes
    min(max(count, 2), N) real values; any other pair, the diagonal p = 0 pair
    included, takes the "general" route, which computes all N (module
    docstring).  A negative real part or a significant imaginary part among
    every value computed marks instability (or truncation failure), also
    beyond the ``count`` returned.
    ``reduction`` names the route and ``solved`` the order of the matrix whose
    eigenvalues were computed.  For the ground state the kernel structure
    (three eigenvectors, one Jordan partner) is verified explicitly on the
    whole operators.
    """
    if count is None:
        count = ops.n_modes
    elif not 1 <= count <= ops.n_modes:
        raise ValueError(f"count must lie in 1..{ops.n_modes}, got {count}")
    solved = _coupled_order(ops.Lplus, ops.Lminus)
    dense = ops.p is not None and solved == ops.n_modes
    found = _supersymmetric_eigenvalues(ops, count) if dense else None
    if found is not None:
        reduction = "supersymmetric"
        vals, solved = found
    else:
        reduction = "general"
        lplus, lminus = ops.Lplus[:solved, :solved], ops.Lminus[:solved, :solved]
        minv = 1.0 / ops.M[:solved]
        compose = (minv[:, None] * lminus) @ (minv[:, None] * lplus)
        tail = np.diagonal(ops.Lminus)[solved:] * np.diagonal(ops.Lplus)[solved:]
        tail /= ops.M[solved:] ** 2
        vals = np.concatenate([np.linalg.eigvals(compose), tail])
    tol = STABILITY_TOL * max(float(np.max(np.abs(vals))), 1.0)
    unstable = bool(np.any(vals.real < -tol) or np.any(np.abs(vals.imag) > tol))
    vals = np.sort(vals)[:count]
    omegas = np.sqrt(np.clip(vals[np.abs(vals) > tol].real, 0.0, None))

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
    return StabilityReport(omegas, vals, zero_geometric, jordan, unstable, reduction, solved)


def _supersymmetric_eigenvalues(ops: OperatorPair, count: int) -> tuple[np.ndarray, int] | None:
    """The lowest k = min(max(count, 2), N) eigenvalues of P for a ground-state
    pair, unordered, from its supersymmetric structure, and the order of the
    matrix solved for them; None when the structure or the certificate fails.
    k >= 2 keeps both zeros inside the block: at k = 1 they tie across the gap.

    With D = M^-1/2, v = M^1/2 A(p), L0 = (L+ + L-)/2 and S0 = D L0 D, the
    structure is L+- = L0 +- w w^T, w = M A, and L0 A = M A, that is
    S+- = D L+- D = S0 +- v v^T and S0 v = v.  It holds when
    F = (L+ - L-)/2 - w w^T and r = S0 u - u, u = v/|v|, have ||F||_F and
    |r| within _STRUCTURE_TOL; the coupling residual G = D F D has
    ||G||_2 <= ||F||_F, since ||D||_2 = 1, and ||B - B^T||_F (B below, an
    asymmetry of L+ + L-; one of L+ - L- shows in F) is within it too.
    P = D (S- S+) D^-1, and for symmetric L+- the symmetric
    S~0 = S0 - (r u^T + u r^T - (u^T r) u u^T) has S~0 v = v exactly and
    ||S0 - S~0||_2 <= eps = 3|r|.  Then S~- S~+ = S~0^2 - |v|^2 v v^T with
    S~+- = S~0 +- v v^T is symmetric: 1 - |v|^4 on v, sigma^2 on the other
    eigenvectors of S~0.  With h = eps + ||F||_F and
    s = ||S0||_2 + eps + |v|^2 >= ||S~+-||_2, where ||S0||_2 <= 2 ||B||_F + 1
    below, ||S- S+ - S~- S~+||_2 <= delta = (2s + h) h,
    so by Bauer-Fike (Numer. Math. 2 (1960) 137) every eigenvalue of P lies
    within delta of one of S~- S~+ (all of this to the rounding of forming B
    and to its asymmetry).

    S0 = 2B - I with B = D T D, T = (L0 + M)/2, so the top k + 1 eigenvalues
    mu of B from ``_top_block`` give sigma = 2 mu - 1 within
    eta = eps + 2 tau of those of S~0 (tau the residual contract, Kahan's
    bound and Weyl's inequality).  The returned values are 0 for the top
    sigma, which is v's when sigma_2 + eta < 1, and sigma_i^2 for i = 2..k,
    each within bound = delta + max(|1 - |v|^4|, (2a + eta) eta),
    a = max |sigma_i|, of an eigenvalue of S~- S~+.  When k < N every other
    eigenvalue of S~0 is at most high = sigma_k+1 + eta; with high < 0 and
    high^2 - delta above the largest returned value plus bound, the Bauer-Fike
    discs about the returned values are apart from the others, and by
    continuity they hold exactly k eigenvalues of P, the lowest.
    """
    n_modes = ops.n_modes
    half = 1.0 / np.sqrt(ops.M)
    weighted = ops.M * ground_amplitudes(ops.p, n_modes)
    v = half * weighted
    # 2F = L+ - L- - 2 w w^T, the rank-one update in place over 64-row blocks
    mat = np.subtract(ops.Lplus, ops.Lminus)
    for i in range(0, n_modes, 64):
        mat[i : i + 64] -= np.outer(2.0 * weighted[i : i + 64], weighted)
    coupling = 0.5 * float(np.linalg.norm(mat))
    # B = D (L+ + L-) D / 4 + I / 2, in the same buffer
    np.add(ops.Lplus, ops.Lminus, out=mat)
    mat *= 0.25 * half[:, None]
    mat *= half
    mat.flat[:: n_modes + 1] += 0.5
    norm_v = float(np.linalg.norm(v))
    residual = 2.0 * float(np.linalg.norm(mat @ v - v)) / norm_v
    # twice this sum over 64-row blocks, cache-sized for the transposed reads,
    # bounds ||B - B^T||_F^2: it counts the diagonal blocks whole, the rest once
    skew = (mat[i : i + 64, i:] - mat[i:, i : i + 64].T for i in range(0, n_modes, 64))
    asymmetry = np.sqrt(2.0 * sum(float(np.vdot(d, d)) for d in skew))
    # "not <=" also refuses NaN
    if not max(coupling, residual, asymmetry) <= _STRUCTURE_TOL:
        return None
    k = min(max(count, 2), n_modes)
    mu, solved = _top_block(mat, min(k + 1, n_modes))
    sigma = 2.0 * mu - 1.0
    eps = 3.0 * residual
    eta = eps + 2.0 * _residual_bound(mu)
    h = eps + coupling
    delta = (2.0 * (2.0 * float(np.linalg.norm(mat)) + 1.0 + eps + norm_v**2) + h) * h
    vals = sigma[:k] ** 2
    vals[0] = 0.0
    spread = float(np.max(np.abs(sigma[1:k]), initial=0.0))
    bound = delta + max(abs(1.0 - norm_v**4), (2.0 * spread + eta) * eta)
    if k > 1 and not sigma[1] + eta < 1.0:
        return None
    if k < n_modes:
        high = sigma[k] + eta
        if not (high < 0.0 and high * high - delta > np.max(vals) + bound):
            return None
    return vals, solved


def commutators(ops: OperatorPair, inner: int) -> tuple[float, float]:
    """Max |entry| of [L+, L-] and [M^-1 L+, M^-1 L-] over the leading block.

    The inner block (inner <= N/2) keeps truncation-tail contamination below
    tolerance; the operators commute exactly in the untruncated system.
    Each commutator reads only the leading ``inner`` rows and columns of its
    operands, so only those of M^-1 L+- are scaled, entry for entry the
    products of scaling the whole matrices.
    """
    if not 1 <= inner <= ops.n_modes // 2:
        raise ValueError(f"inner block must lie in 1..N/2 = {ops.n_modes // 2}, got {inner}")

    def block(x_rows: np.ndarray, x_cols: np.ndarray, y_rows: np.ndarray, y_cols: np.ndarray) -> float:
        # the leading inner x inner block of [x, y]
        return float(np.max(np.abs(x_rows @ y_cols - y_rows @ x_cols)))

    lp, lm = ops.Lplus, ops.Lminus
    minv = 1.0 / ops.M
    head, left = minv[:inner, None], minv[:, None]
    return (
        block(lp[:inner], lp[:, :inner], lm[:inner], lm[:, :inner]),
        block(head * lp[:inner], left * lp[:, :inner], head * lm[:inner], left * lm[:, :inner]),
    )


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


def ladder_check(ops: OperatorPair, m_max: int = 10) -> LadderReport:
    """Verify the creation/annihilation structure of L0 = 2T(p) - M = (L+ + L-)/2.

    On vectors orthogonal to {A(p), M A(p)} the shift S and left-shift S*
    intertwine L0 with itself -+ I; iterating S on the closed-form first
    eigenvector v1 generates eigenvalue -m for every m.  The m-th vector is
    shifted m - 1 places, so m_max is at most N/2: beyond that the truncation
    cuts into the shifted vectors (and past N they vanish).

    L0 is applied once, to the block X = [a, S a, S* a, v1, S v1, ..,
    S^{m_max-1} v1], as L0 X = (L+ X + L- X)/2: no N x N L0 is formed.
    """
    if ops.p is None:
        raise ValueError("ladder_check is defined for ground-state operators")
    p, n_modes = ops.p, ops.n_modes
    if n_modes < 3:
        raise ValueError(f"ladder_check needs n_modes >= 3, got {n_modes}")
    if not 1 <= m_max <= n_modes // 2:
        raise ValueError(f"m_max must lie in 1..N/2 = {n_modes // 2}, got {m_max}")
    ground = ground_amplitudes(p, n_modes)
    weighted = ops.M * ground

    rng = np.random.default_rng(np.random.Philox(key=LADDER_SEED))
    half = n_modes // 2
    a = np.zeros(n_modes)
    a[:half] = rng.standard_normal(half)
    # project onto the orthogonal complement of {A, MA} within the support window
    basis = np.stack([ground[:half], weighted[:half]])
    q, _ = np.linalg.qr(basis.T)
    a[:half] -= q @ (q.T @ a[:half])
    v1 = _first_ladder_vector(p, n_modes)

    block = np.zeros((n_modes, 3 + m_max))
    block[:, 0] = a
    block[1:, 1] = a[:-1]  # S a
    block[:-1, 2] = a[1:]  # S* a
    for m in range(m_max):  # v^{m+1} = S^m v1
        block[m:, 3 + m] = v1[: n_modes - m]
    image = ops.Lplus @ block
    image += ops.Lminus @ block
    image *= 0.5
    l0_a = image[:, 0]

    norm_a = max(np.linalg.norm(a), 1e-300)
    rhs1 = np.concatenate([[0.0], (l0_a - a)[:-1]])  # S (2T - M - I) a
    res1 = np.linalg.norm(image[:, 1] - rhs1) / norm_a
    rhs2 = np.concatenate([(l0_a + a)[1:], [0.0]])  # S* (2T - M + I) a
    res2 = np.linalg.norm(image[:, 2] - rhs2) / norm_a

    # neither vanishes at N >= 3: S* v1 has entries -2p(1-p^2) and
    # (1-p^2)(1-3p^2), A' has -2p and 1-3p^2 at n = 0, 1
    dground = ground_derivative(p, n_modes)
    star = np.concatenate([v1[1:], [0.0]])
    unit = dground / np.linalg.norm(dground)
    rejection = star - (star @ unit) * unit
    angle = float(np.arcsin(min(1.0, np.linalg.norm(rejection) / np.linalg.norm(star))))

    vecs = block[:, 3:]
    eigen_res = np.linalg.norm(image[:, 3:] + np.arange(1, m_max + 1) * vecs, axis=0)
    eigen_res /= np.linalg.norm(vecs, axis=0)
    # v1's relation is the m = 1 entry
    return LadderReport(res1, res2, eigen_res[0], angle, eigen_res)


@dataclass
class MuLadderReport:
    mus: np.ndarray  # 1/(m+1)
    residuals: np.ndarray  # ||T v - mu M v|| / ||M v||
    coefficients: list[np.ndarray]  # expansion of v^(m) over {M^j A}, x_m = 1


def mu_ladder(ops: OperatorPair, m_max: int) -> MuLadderReport:
    """Eigenvectors of T(p) v = mu M v in the polynomial ladder span{M^j A}.

    v^(m) = sum_{j<=m} x_j M^j A, x_m = 1, is fixed by the eigen-condition
    with mu_m = 1/(m+1): x_0 .. x_{m-1} come from a least-squares solve in
    the ladder basis, and the residual is verified on the full truncation.
    The closed forms are x = [-(1+p^2)/(1-p^2), 1] for m = 1 and
    [2(1+p^2+p^4)/(1-p^2)^2, -3(1+p^2)/(1-p^2), 1] for m = 2.

    T = (L+ + L- + 2M)/4 is never formed: T X = (L+ X + L- X + 2 M X)/4 on the
    basis X = [A, M A, .., M^m_max A], and the residuals read T v = (T X) x.
    """
    if ops.p is None:
        raise ValueError("mu_ladder is defined for ground-state operators")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    n_modes, m_diag = ops.n_modes, ops.M
    # column j is M^j A, j = 0 .. m_max + 1; the first m_max + 1 are the basis
    powers = np.empty((n_modes, m_max + 2))
    powers[:, 0] = ground_amplitudes(ops.p, n_modes)
    for j in range(1, m_max + 2):
        powers[:, j] = m_diag * powers[:, j - 1]
    basis = powers[:, :-1]
    # T X = (L0 + M) X / 2 = (L+ X + L- X + 2 M X)/4, and M X is powers[:, 1:]
    t_basis = ops.Lplus @ basis
    t_basis += ops.Lminus @ basis
    t_basis += 2.0 * powers[:, 1:]
    t_basis *= 0.25

    mus = 1.0 / np.arange(1.0, m_max + 2)
    coeffs = np.identity(m_max + 1)  # column m: x of v^(m)
    for m in range(1, m_max + 1):
        cols = t_basis[:, : m + 1] - mus[m] * powers[:, 1 : m + 2]
        coeffs[:m, m], *_ = np.linalg.lstsq(cols[:, :m], -cols[:, m], rcond=None)
    vecs = basis @ coeffs
    weighted_vecs = m_diag[:, None] * vecs
    residuals = np.linalg.norm(t_basis @ coeffs - mus * weighted_vecs, axis=0)
    residuals /= np.maximum(np.linalg.norm(weighted_vecs, axis=0), 1e-300)
    coeff_list = [coeffs[: m + 1, m].copy() for m in range(m_max + 1)]
    return MuLadderReport(mus, residuals, coeff_list)


def appendix_identities(p: float, n_max: int) -> dict[str, float]:
    """Max relative error of each closed-form summation identity vs direct sums.

    Each kernel row (n, j) is summed from its first term, k0 = max(0, j - n),
    for span = ceil(log TAIL_EPS / log p^2) + 2 terms: its terms fall by a
    factor p^2 each, so the last is p^2 TAIL_EPS of the first.  The folded
    sums run over k = 1..kmax - 1, kmax = max(200, ceil(log TAIL_EPS / log p)
    + 2 n_max + 4); a p so close to 1 that kmax exceeds MAX_TAIL_TERMS raises
    ``ValueError``, as does an n_max that is not an integer in
    0..MAX_IDENTITY_ORDER.
    Keys: geometric_sum, geometric_weighted, kernel_row_le, kernel_row_ge,
    kernel_total, folded_sum, folded_weighted.  kernel_total is the largest
    absolute error of an exact integer identity, which does not depend on p,
    so it must be 0; it is summed once per n_max (``_kernel_total_error``).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not _is_integer(n_max) or not 0 <= n_max <= MAX_IDENTITY_ORDER:
        raise ValueError(f"n_max must be an integer in 0..{MAX_IDENTITY_ORDER}, got {n_max!r}")
    kmax = max(200, int(np.ceil(np.log(TAIL_EPS) / np.log(p))) + 2 * n_max + 4)
    if kmax > MAX_TAIL_TERMS:
        raise ValueError(f"tails of {kmax} terms at p = {p}; at most {MAX_TAIL_TERMS}")
    # every exponent below is at most n_max + 2 kmax.  Scalar pow: numpy's
    # vectorized pow may be an ulp off (p^3 at p = 0.99), and the closed forms'
    # 1/(1 - p^2)^2 magnifies that near p = 1
    powers = np.array([p**e for e in range(2 * kmax + n_max + 1)])
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
    # k >= k0 = max(0, j-n).  At k = k0 + t the term is (min(n, j, t) + 1)
    # p^{|n-j|+2t}: each row starts at p^{|n-j|} and falls by p^2 a term, so
    # span terms reach p^2 TAIL_EPS of its first.  One pass per n = m over the
    # (j, t) grid
    span = int(np.ceil(np.log(TAIL_EPS) / np.log(q))) + 2
    t = np.arange(span)
    direct = np.empty((n_max + 1, n_max + 1))  # [m, j]
    for m in range(n_max + 1):
        coeff = np.minimum(np.minimum(m, col), t) + 1.0
        direct[m] = np.sum(coeff * powers[np.abs(m - col) + 2 * t], axis=1)
    closed = (powers[np.abs(col - n)] - powers[2 + col + n]) / (1.0 - q) ** 2
    kernel_rel = rel(np.abs(direct - closed), closed)

    return {
        "geometric_sum": float(np.max(geometric_sum)),
        "geometric_weighted": float(np.max(geometric_weighted)),
        "kernel_row_le": float(np.max(kernel_rel[np.tril_indices(n_max + 1)])),
        "kernel_row_ge": float(np.max(kernel_rel[np.triu_indices(n_max + 1)])),
        "kernel_total": float(_kernel_total_error(n_max)),
        "folded_sum": float(np.max(folded_sum)),
        "folded_weighted": float(np.max(folded_weighted)),
    }


@functools.cache
def _kernel_total_error(n_max: int) -> int:
    """Largest absolute error of the exact integer identity
    sum_{k=0}^{m+j} (min(m, k, m+j-k) + 1) = (1+j)(1+m) over 0 <= m <= j <= n_max.

    It does not depend on p, so each n_max is summed once (the cache holds at
    most MAX_IDENTITY_ORDER + 1 integers).  One pass per m over the (j, k)
    grid, the summand clipped at 0 past k = m + j.
    """
    k = np.arange(2 * n_max + 1, dtype=np.int32)
    rows = np.arange(n_max + 1, dtype=np.int32)[:, None]
    worst = 0
    for m in range(n_max + 1):
        j = rows[m:]
        totals = np.sum(np.maximum(np.minimum(m, np.minimum(k, m + j - k)) + 1, 0), axis=1)
        worst = max(worst, int(np.max(np.abs(totals - (1 + j[:, 0]) * (1 + m)))))
    return worst


def mode_energy_relation(p: float) -> dict[str, float]:
    """<MA'(p), A(p)> (must vanish) and the closed form of <MA'(p), MA(p)>.

    The inner product equals 2p / (1-p^2)^2, which is half the p-derivative
    of the h^1 mass (1+p^2)/(1-p^2) and is strictly positive for p > 0.  The
    related series sum (n+1)^2 p^{2n} [n(1-p^2) - 2p^2] = 2p^2 / (1-p^2)^3 is
    checked as well; it differs from the inner product by a factor p/(1-p^2).
    A p so close to 1 that the sums need more than MAX_TAIL_TERMS modes raises
    ``ValueError``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    # enough modes that the truncated sums are exact to double precision
    n_modes = max(64, int(np.ceil(np.log(1e-16) / np.log(p))) + 8)
    if n_modes > MAX_TAIL_TERMS:
        raise ValueError(f"{n_modes} modes at p = {p}; at most {MAX_TAIL_TERMS}")
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
