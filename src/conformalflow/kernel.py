"""The layer-cumulative pair-sum table behind the fast field and energy.

The quartic coupling S(n, j, k, m) = min(n, j, k, m) + 1 (with n + j = k + m)
admits the representation S = sum_{l=0}^{min} 1.  Splitting every quartic
contraction by the layer index l gives the layered pair sums

    C_l(s) = sum_{k=l}^{s-l} alpha_k alpha_{s-k},

whose l = 0 row is a plain self-convolution and whose later rows follow from
the endpoint recurrence

    C_{l+1}(s) = C_l(s) - 2 alpha_l alpha_{s-l}.

The contractions need only their running sums over the layers,

    D[a, s] = sum_{l=0}^{a} C_l(s) = sum_k (min(a, k, s-k) + 1) alpha_k alpha_{s-k},

read at a = min(n, j), s = n + j >= 2a.  ``layer_cumulative_sums`` builds D
in O(N^2) by walking one row C_l down the layers, never materialising C, and
``weighted_field`` contracts it into (n+1) F_n = sum_j conj(alpha_j) D[min(n,j), n+j].
Both the vector field F and, by Euler's identity for the degree-2
homogeneous dependence on conj(alpha), the energy H = sum_n conj(alpha_n) (n+1) F_n
come from that one contraction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["layer_cumulative_sums", "weighted_field"]


def layer_cumulative_sums(alpha: np.ndarray) -> np.ndarray:
    """Table D[a, s] = sum_{l=0}^{a} C_l(s), with C_l(s) = sum_{k=l}^{s-l} alpha_k alpha_{s-k}.

    Parameters
    ----------
    alpha : complex array of length N (truncated mode vector)

    Returns
    -------
    D : complex array of shape (N, 2N - 1); entries with s < 2a are never
        read by the contraction and are left zero.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    n = alpha.size
    table = np.zeros((n, 2 * n - 1), dtype=np.complex128)
    row = np.convolve(alpha, alpha)  # C_0, updated in place to C_l
    table[0] = row
    for l in range(n - 1):
        # layer l + 1 is read from s = 2(l + 1) on; below that row holds stale values
        lo = 2 * (l + 1)
        # endpoint pair alpha_l alpha_{s-l}; alpha is zero above n - 1, so s <= n - 1 + l
        row[lo : n + l] -= 2.0 * alpha[l] * alpha[lo - l :]
        np.add(table[l, lo:], row[lo:], out=table[l + 1, lo:])
    return table


@lru_cache(maxsize=8)
def _gather_indices(n_modes: int) -> np.ndarray:
    """Flat indices of D[min(n, j), n + j] in the C-ordered (N, 2N - 1) table."""
    idx = np.arange(n_modes)
    return np.minimum.outer(idx, idx) * (2 * n_modes - 1) + np.add.outer(idx, idx)


def weighted_field(alpha: np.ndarray) -> np.ndarray:
    """(n+1) F_n = sum_j conj(alpha_j) D[min(n,j), n+j]; O(N^2)."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    gathered = np.take(layer_cumulative_sums(alpha), _gather_indices(alpha.size))
    return gathered @ np.conj(alpha)
