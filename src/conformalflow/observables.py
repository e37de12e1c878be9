"""Conserved quantities H, Q, E, the gap Q^2 - H, and the functional K.

``energy_naive`` is the trusted cubic-cost oracle taken straight from the
quadruple-sum definition; ``energy_fast`` is the quadratic-cost production
path.  H is homogeneous of degree 2 in conj(alpha), so by Euler's identity
H = sum_n conj(alpha_n) (n+1) F_n: the fast energy is one inner product with
``kernel.weighted_field``, the same contraction of the layer-cumulative
pair-sum table that gives the vector field.  The two paths are kept
independent so that every fast-path bug shows up as a disagreement.
"""

from __future__ import annotations

import numpy as np

from .kernel import weighted_field

__all__ = [
    "charge",
    "higher_charge",
    "energy_naive",
    "energy_fast",
    "gap",
    "functional_K",
    "hankel_identity_check",
]

#: hankel_identity_check rejects x with max |x - reversed x| above this times max(1, max |x|)
PALINDROME_TOL = 1e-12


def charge(alpha: np.ndarray) -> float:
    """Q(alpha) = sum (n+1) |alpha_n|^2."""
    alpha = np.asarray(alpha)
    n = np.arange(alpha.size)
    return float(np.sum((n + 1.0) * np.abs(alpha) ** 2))


def higher_charge(alpha: np.ndarray) -> float:
    """E(alpha) = sum (n+1)^2 |alpha_n|^2."""
    alpha = np.asarray(alpha)
    n = np.arange(alpha.size)
    return float(np.sum((n + 1.0) ** 2 * np.abs(alpha) ** 2))


def energy_naive(alpha: np.ndarray, imag_tol: float = 1e-12) -> float:
    """Quartic energy from the raw quadruple sum; O(N^3) oracle.

    The n <-> j symmetry halves the index set.  The accumulated value must be
    real; a relative imaginary part above ``imag_tol`` signals an indexing bug
    and raises ``ArithmeticError``.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    n_modes = alpha.size
    acc = 0.0 + 0.0j
    for n in range(n_modes):
        for j in range(n, n_modes):
            s = n + j
            k = np.arange(max(0, s - n_modes + 1), min(s, n_modes - 1) + 1)
            m = s - k
            coeff = np.minimum(np.minimum(k, m), min(n, j)) + 1
            inner = np.sum(coeff * alpha[k] * alpha[m])
            weight = 1.0 if j == n else 2.0
            acc += weight * np.conj(alpha[n] * alpha[j]) * inner
    scale = max(1.0, abs(acc))
    if abs(acc.imag) > imag_tol * scale:
        raise ArithmeticError(
            f"energy accumulated a non-real value: imag={acc.imag:.3e}, |H|={abs(acc):.3e}"
        )
    return float(acc.real)


def energy_fast(alpha: np.ndarray) -> float:
    """Quartic energy H = Re <alpha, weighted_field(alpha)> (Euler's identity)."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    return float(np.vdot(alpha, weighted_field(alpha)).real)


def gap(alpha: np.ndarray) -> float:
    """G(alpha) = Q(alpha)^2 - H(alpha); nonnegative, zero on geometric states."""
    return charge(alpha) ** 2 - energy_fast(alpha)


def functional_K(alpha: np.ndarray, lam: float) -> float:
    """K(alpha) = H(alpha)/2 - lambda Q(alpha); standing waves are its critical points."""
    return 0.5 * energy_fast(alpha) - lam * charge(alpha)


def hankel_identity_check(x: np.ndarray) -> tuple[float, float]:
    """Both sides of the quadratic-form identity behind the energy bound.

    ``x`` has length n + 1 and must be palindromic, x_k = x_{n-k}.  The left
    side is the full quadratic form

        sum_k (k+1)(n+1-k) |x_k|^2 - sum_{j,k} [min(j, n-j, k, n-k) + 1] conj(x_j) x_k,

    the right side the sum of squared differences over half indices,

        4 sum_{j < k <= n//2} (j+1) w_k |x_j - x_k|^2,

    with w_k = 1 except w_{n/2} = 1/2 when n is even (the middle entry is
    self-paired).  Both sides vanish iff x is constant.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size - 1
    scale = max(1.0, float(np.max(np.abs(x)))) if x.size else 1.0
    if np.max(np.abs(x - x[::-1])) > PALINDROME_TOL * scale:
        raise ValueError("input is not palindromic")

    k = np.arange(n + 1)
    lhs_diag = float(np.sum((k + 1.0) * (n + 1.0 - k) * np.abs(x) ** 2))
    depth = np.minimum(k, n - k)
    coeff = np.minimum.outer(depth, depth) + 1.0
    lhs_cross = np.real(np.conj(x) @ (coeff @ x))
    lhs = lhs_diag - float(lhs_cross)

    half = n // 2
    rhs = 0.0
    for j in range(half):
        for kk in range(j + 1, half + 1):
            w = 0.5 if (n % 2 == 0 and kk == half) else 1.0
            rhs += 4.0 * (j + 1) * w * abs(x[j] - x[kk]) ** 2
    return lhs, rhs
