"""The layered pair sums behind the fast vector field.

The quartic coupling S(n, j, k, m) = min(n, j, k, m) + 1 (with n + j = k + m)
admits the representation S = sum_{l=0}^{min} 1.  Splitting every quartic
contraction by the layer index l gives the layered pair sums

    C_l(s) = sum_{k=l}^{s-l} alpha_k alpha_{s-k},

whose l = 0 row is a plain self-convolution and whose later rows follow from
the endpoint recurrence C_{l+1}(s) = C_l(s) - 2 alpha_l alpha_{s-l}.  The walk
below carries one row C_l down the layers, updated in place, and never
materialises C.

The field contracts the running sums over the layers,

    D[a, s] = sum_{l=0}^{a} C_l(s) = sum_k (min(a, k, s-k) + 1) alpha_k alpha_{s-k},

read at a = min(n, j), s = n + j.  ``layer_cumulative_sums`` builds the
N x N upper-triangular table H[a, j] = D[a, a+j] (j >= a) in O(N^2), and
``weighted_field`` contracts it into

    (n+1) F_n = sum_{j>=n} H[n, j] conj(alpha_j) + sum_{j<n} conj(alpha_j) H[j, n].

The energy walks the same layers without a table (``observables.energy_fast``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["layer_cumulative_sums", "weighted_field"]


def layer_cumulative_sums(alpha: np.ndarray) -> np.ndarray:
    """N x N table H[a, j] = D[a, a+j] of the mode vector alpha for j >= a, zero for j < a."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    n = alpha.size
    table = np.zeros((n, n), dtype=np.complex128)
    row = np.convolve(alpha, alpha)  # C_0, updated in place to C_l
    table[0] = row[:n]
    # at s = a + N - 1 every endpoint alpha_{s-m} (m < a) lies above N - 1 and
    # vanishes, so each layer l <= a equals C_0 there
    table[:, n - 1] = np.arange(1, n + 1) * row[n - 1 :]
    for l in range(n - 2):
        lo = 2 * (l + 1)
        # endpoint pair alpha_l alpha_{s-l}; alpha is zero above n - 1, so s <= n - 1 + l
        row[lo : n + l] -= 2.0 * alpha[l] * alpha[lo - l :]
        np.add(table[l, l + 2 :], row[lo : n + l], out=table[l + 1, l + 1 : n - 1])
    return table


def weighted_field(alpha: np.ndarray) -> np.ndarray:
    """(n+1) F_n = sum_j conj(alpha_j) D[min(n,j), n+j]; O(N^2)."""
    table = layer_cumulative_sums(alpha)
    conj = np.conj(alpha)
    # j >= n, j < n, and the diagonal j = n counted once
    return table @ conj + conj @ table - table.diagonal() * conj

