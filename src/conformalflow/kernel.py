"""Resonant interaction coefficients and the layered pair-sum table.

The quartic coupling S(n, j, k, m) = min(n, j, k, m) + 1 (with n + j = k + m)
admits the representation S = sum_{l=0}^{min} 1.  Splitting every quartic
contraction by the layer index l turns cubic-cost sums into sums over the
table

    C_l(s) = sum_{k=l}^{s-l} alpha_k alpha_{s-k},

which costs O(N^2) in total: the l = 0 row is a plain self-convolution and
each subsequent row follows from the endpoint recurrence

    C_{l+1}(s) = C_l(s) - 2 alpha_l alpha_{s-l}.
"""

from __future__ import annotations

import numpy as np

__all__ = ["layered_pair_sums", "layer_prefix_sums"]


def layered_pair_sums(alpha: np.ndarray) -> np.ndarray:
    """Table C[l, s] = sum_{k=l}^{s-l} alpha_k alpha_{s-k}.

    Parameters
    ----------
    alpha : complex array of length N (truncated mode vector)

    Returns
    -------
    C : complex array of shape (N, 2N - 1); entries outside the triangular
        index set s >= 2l are zero.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    n = alpha.size
    width = 2 * n - 1
    table = np.zeros((n, width), dtype=np.complex128)
    table[0] = np.convolve(alpha, alpha)
    for l in range(n - 1):
        # row l + 1 starts at s = 2(l + 1); the table is zero below that
        lo = 2 * (l + 1)
        table[l + 1, lo:] = table[l, lo:]
        # endpoint pair alpha_l alpha_{s-l}; alpha is zero above n - 1, so s <= n - 1 + l
        table[l + 1, lo : n + l] -= 2.0 * alpha[l] * alpha[lo - l :]
    return table


def layer_prefix_sums(table: np.ndarray) -> np.ndarray:
    """Cumulative layers D[a, s] = sum_{l=0}^{a} C[l, s].

    This is the kernel contraction sum_l [l <= a] C_l(s) that appears in the
    sub-cubic vector field evaluation.
    """
    return np.cumsum(table, axis=0)
