"""Conserved quantities H, Q, E, the gap Q^2 - H, and the functional K.

``energy_naive`` is the trusted cubic-cost oracle taken straight from the
quadruple-sum definition; ``energy_fast`` is the quadratic-cost production
path, the sum of squares H = sum_l sum_s |C_l(s)|^2 of the layered pair sums
C_l(s) of ``kernel``, walked down the layers one at a time (the vector field
walks them in blocks).  The two paths are kept independent so that
every fast-path bug shows up as a disagreement.

The walk takes C_0 of every state from one FFT and updates it in place by
the endpoint recurrence C_{l+1}(s) = C_l(s) - 2 alpha_l alpha_{s-l}, in
O(B N^2) time and O(B N) memory for B states, each value bitwise independent
of the other states.  C_l agrees with C_0 at s >= N + l - 1, where every
endpoint alpha_{s-m} (m < l) lies above N - 1, so each layer sums only its
changed segment [2l, N + l - 1) and every layer's unchanged tail is one
weighted sum of |C_0|^2.

Every quantity but ``energy_naive`` takes one state (and returns a float) or
a stack of states along the last axis (and returns an array, one value per
state).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "charge",
    "higher_charge",
    "energy_naive",
    "energy_fast",
    "gap",
    "functional_K",
]

#: energy_naive raises when its sum has an imaginary part above this times max(1, |H|)
IMAG_TOL = 1e-12


def _per_state(values: np.ndarray) -> float | np.ndarray:
    """A float for one state, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def charge(alpha: np.ndarray) -> float | np.ndarray:
    """Q(alpha) = sum (n+1) |alpha_n|^2."""
    alpha = np.asarray(alpha)
    n = np.arange(alpha.shape[-1])
    return _per_state(np.sum((n + 1.0) * np.abs(alpha) ** 2, axis=-1))


def higher_charge(alpha: np.ndarray) -> float | np.ndarray:
    """E(alpha) = sum (n+1)^2 |alpha_n|^2."""
    alpha = np.asarray(alpha)
    n = np.arange(alpha.shape[-1])
    return _per_state(np.sum((n + 1.0) ** 2 * np.abs(alpha) ** 2, axis=-1))


def energy_naive(alpha: np.ndarray) -> float:
    """Quartic energy from the raw quadruple sum; O(N^3) oracle.

    The n <-> j symmetry halves the index set.  The accumulated value must be
    real; a relative imaginary part above ``IMAG_TOL`` signals an indexing bug
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
    if abs(acc.imag) > IMAG_TOL * scale:
        raise ArithmeticError(
            f"energy accumulated a non-real value: imag={acc.imag:.3e}, |H|={abs(acc):.3e}"
        )
    return float(acc.real)


def energy_fast(alpha: np.ndarray) -> float | np.ndarray:
    """Quartic energy H = sum_l sum_s |C_l(s)|^2 by one table-free layer walk; O(N^2) a state."""
    from numpy import fft  # here, so that importing the package leaves numpy.fft unloaded

    alpha = np.asarray(alpha, dtype=np.complex128)
    n = alpha.shape[-1]
    stack = alpha.reshape(-1, n)
    # C_0 of every row from one transform, zero-padded to a power of two >= 2N - 1
    spec = fft.fft(stack, 1 << (2 * n - 2).bit_length())
    spec *= spec
    row = fft.ifft(spec)[:, : 2 * n - 1]  # C_0, updated in place to C_l
    parts = row.view(np.float64)  # (re, im) pairs: |z|^2 is a dot product
    sums = np.empty((stack.shape[0], max(n - 1, 1)))
    # layer 0 whole, plus the tail s >= N - 1 that layers 1 .. s - N + 1 share with it
    weights = np.ones(parts.shape[1])
    weights[2 * n - 2 :] = np.repeat(np.arange(1.0, n + 1), 2)
    np.vecdot(parts, weights * parts, out=sums[:, 0])
    twice = 2.0 * stack
    for l in range(n - 2):
        lo = 2 * (l + 1)
        row[:, lo : n + l] -= twice[:, l, None] * stack[:, lo - l :]
        changed = parts[:, 2 * lo : 2 * (n + l)]
        np.vecdot(changed, changed, out=sums[:, l + 1])
    return _per_state(sums.sum(axis=-1).reshape(alpha.shape[:-1]))


def gap(alpha: np.ndarray) -> float | np.ndarray:
    """G(alpha) = Q(alpha)^2 - H(alpha); nonnegative, zero on geometric states."""
    return charge(alpha) ** 2 - energy_fast(alpha)


def functional_K(alpha: np.ndarray, lam: float) -> float | np.ndarray:
    """K(alpha) = H(alpha)/2 - lambda Q(alpha); standing waves are its critical points."""
    return 0.5 * energy_fast(alpha) - lam * charge(alpha)

