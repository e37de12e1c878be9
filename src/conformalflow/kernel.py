"""The layered pair sums behind the fast vector field, walked in blocks.

The quartic coupling S(n, j, k, m) = min(n, j, k, m) + 1 (with n + j = k + m)
admits the representation S = sum_{l=0}^{min} 1.  Splitting every quartic
contraction by the layer index l gives the layered pair sums

    C_l(s) = sum_{k=l}^{s-l} alpha_k alpha_{s-k},

whose l = 0 row is a plain self-convolution and whose later rows follow from
the endpoint recurrence C_{l+1}(s) = C_l(s) - 2 W_l(s), W_x(s) = alpha_x alpha_{s-x}.
The field contracts the running sums over the layers,

    D_a(s) = sum_{l=0}^{a} C_l(s) = sum_k (min(a, k, s-k) + 1) alpha_k alpha_{s-k},

read at a = min(n, j), s = n + j.  With the upper-triangular
H[a, j] = D_a(a+j) (j >= a) and c = conj(alpha),

    (n+1) F_n = sum_{j>=n} H[n, j] c_j + sum_{j<n} c_j H[j, n].

``weighted_field`` never forms H.  It walks the layers in blocks of
``SCAN_CHUNK`` rows a = a0 + k, from the carries D_{-1} = 0 and C_{-1} = C_0.
Unrolled over a block, the recurrences read

    D_{a0+k} = D_{a0-1} + (k+1) C_{a0-1} - 2 sum_{i<=k} (k+1-i) W_{a0-1+i},
    C_{a0+b-1} = C_{a0-1} - 2 sum_{i<b} W_{a0-1+i},

so one real GEMM, a fixed (b+1) x (b+2) weight matrix times the stacked
rows [D_{a0-1}; C_{a0-1}; W_{a0-1} ... W_{a0+b-2}] viewed as float64 pairs,
makes the block's rows and the next carries on the s in [2 a0,
a0 + b + N - 1) that its rows read.  Past the range the previous block
reached, s >= a0 + N - 1, every endpoint alpha_{s-x} (x < a0) lies above
N - 1 and vanishes, so the carries there are a0 C_0(s) and C_0(s).  Row a of
H is D_a at s = a + j, a view of the block with row stride one more than its
width; its j < a corner is zeroed and the block is contracted at once, so
the walk holds O(SCAN_CHUNK N) numbers and makes a fixed number of numpy
calls a block.

Weight row k is zero past column k + 2, so a full block at least
``_SPLIT_MIN_WIDTH`` wide makes its rows k < b/2 in a second GEMM from the
first b/2 + 2 stacked rows alone: a quarter fewer flops for one more numpy
call, which pays only on wide blocks.  The GEMM drops only exact zeros, so
the values agree to rounding: on OpenBLAS, bitwise at most sizes, and at 10
of the sizes 200 to 2099 one or two entries move by one rounding.

The energy walks the same layers one at a time (``observables.energy_fast``).
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["weighted_field"]

#: layers per block of the walk, chosen by measurement (BENCH_31.json, one BLAS
#: thread): of 16, 24, 32 and 48, 32 is the fastest or within 1 % of it at
#: N = 64, 128 and 512; 48 is 14 % faster at N = 48 and 16 is 7 % faster at
#: N = 1024.  Larger blocks cost GEMM flops, smaller ones numpy calls.  The
#: walk holds about 0.7 MiB at N = 512 and 5 MiB at N = 4096
SCAN_CHUNK = 32
#: the narrowest full block whose rows k < SCAN_CHUNK / 2 come from a second
#: GEMM on the first SCAN_CHUNK / 2 + 2 stacked rows, chosen by measurement
#: (BENCH_36.json, one BLAS thread, ms a weighted_field call against the
#: unsplit walk, interleaved): split at every width, N = 48 and 128 read 2-4 %
#: slower and N = 256 1 %, as the extra matmul call costs more than the flops
#: it saves; from width 256 on, N <= 224 never splits, N = 256 and 384 move by
#: under 1.2 %, and N = 512 and 1024 gain 7-8 % and 11 %
_SPLIT_MIN_WIDTH = 256


@cache  # made on first use: importing the package does no numpy work here
def _block_constants(b: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights, whose rows k < b make D_{a0+k} and row b the next C carry
    from the rows D, C, W_{a0-1+i}, and the mask of a block's j < a corner."""
    k = np.arange(b)[:, None]
    i = np.arange(b)
    weights = np.zeros((b + 1, b + 2))
    weights[:b, 0] = 1.0
    weights[:b, 1] = k[:, 0] + 1.0
    weights[:b, 2:] = -2.0 * np.maximum(k + 1 - i, 0)
    weights[b, 1] = 1.0
    weights[b, 2:] = -2.0
    corner = i < k
    weights.flags.writeable = corner.flags.writeable = False  # shared by every call
    return weights, corner


def _layer_blocks(alpha: np.ndarray):
    """Yield (a0, H[a0 : a0 + rows, a0 :]) for the layers a of a complex vector
    alpha, SCAN_CHUNK rows a block.

    Each block has its j < a corner zeroed and is a view into a buffer that
    the next block overwrites.
    """
    n = alpha.size
    b = SCAN_CHUNK
    weights, corner = _block_constants(b)
    c0 = np.convolve(alpha, alpha)
    # rows alpha and i alpha, zero outside 0 .. N - 1 (offset b): a product
    # alpha_x z is the real GEMM [Re alpha_x, Im alpha_x] @ [z; i z]
    pair = np.zeros((2, 2 * (n + b)), dtype=np.complex128)
    pair[0, b : b + n] = alpha
    np.multiply(pair[0], 1j, out=pair[1])
    parts = pair[0].view(np.float64).reshape(-1, 2)
    widest = min(b, n) + n - 1  # the first block's width
    operand = np.empty((b + 2) * widest + b * (b + 1), dtype=np.complex128)
    result = np.empty((b + 1) * widest, dtype=np.complex128)
    item = operand.itemsize
    scale = np.ones((2, 1))  # past the reached range the carries are (a0, 1) C_0
    reached = 0  # the carries hold D_{a0-1} and C_{a0-1} on [2 a0, reached)
    for a0 in range(0, n, b):
        rows = min(b, n - a0)
        lo, hi = 2 * a0, a0 + rows + n - 1
        width, kept = hi - lo, reached - lo
        # the rows [D; C; W_{a0-1} ... W_{a0+rows-2}] on s in [lo, hi), a row
        # stride width + rows - 1 apart: products[i, m] = alpha_{a0-1+i}
        # alpha_{a0+2-rows+m} start right after the C row, so that row 2 + i
        # reads W_{a0-1+i}(lo + t) = products[i, rows-1-i+t]
        stride = width + rows - 1
        stacked = np.ndarray((rows + 2, width), np.complex128, operand, 0, (item * stride, item))
        start = 2 * stride - rows + 1
        products = operand[start : start + rows * (stride + 1)].reshape(rows, stride + 1)
        m0 = b + a0 + 2 - rows
        np.matmul(
            parts[b + a0 - 1 : b + a0 - 1 + rows],
            pair[:, m0 : m0 + stride + 1].view(np.float64),
            out=products.view(np.float64),
        )
        if kept > 0:
            stacked[0:2, :kept] = carries[:, 2 * b :]
        scale[0, 0] = a0
        np.multiply(scale, c0[reached:hi], out=stacked[0:2, kept:width])
        # in a short last block the final row is unused, but gives the view room
        made = result[: (rows + 1) * width].reshape(rows + 1, width)
        # on a wide full block, rows k < b/2 skip the zero weights past column b/2 + 1
        half = b // 2 if rows == b and width >= _SPLIT_MIN_WIDTH else 0
        if half:
            np.matmul(
                weights[:half, : half + 2],
                stacked[: half + 2].view(np.float64),
                out=made[:half].view(np.float64),
            )
        np.matmul(
            weights[half : rows + 1, : rows + 2],
            stacked.view(np.float64),
            out=made[half:].view(np.float64),
        )
        carries, reached = made[rows - 1 :], hi
        # H[a0+k, a0+j'] = D_{a0+k}(lo + k + j') = made[k, k + j']
        block = result[: rows * (width + 1)].reshape(rows, width + 1)[:, : n - a0]
        block[:, :rows][corner[:rows, :rows]] = 0.0
        yield a0, block


def weighted_field(alpha: np.ndarray) -> np.ndarray:
    """(n+1) F_n = sum_j conj(alpha_j) D_{min(n,j)}(n+j); O(N^2) time, O(SCAN_CHUNK N) memory."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    conj = np.conj(alpha)
    # sum_{j>=n} H[n, j] c_j, sum_{j<=n} c_j H[j, n], and the diagonal j = n counted once
    across = np.empty_like(alpha)
    field = np.zeros_like(alpha)
    diagonal = np.empty_like(alpha)
    for a0, block in _layer_blocks(alpha):
        rows = block.shape[0]
        np.matmul(block, conj[a0:], out=across[a0 : a0 + rows])
        field[a0:] += conj[a0 : a0 + rows] @ block
        diagonal[a0 : a0 + rows] = block.diagonal()
    field += across - diagonal * conj
    return field
