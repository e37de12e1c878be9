"""Mode vectors, weighted norms, the gauge action and reference states.

A state is a 1-D complex numpy array ``alpha`` of length N, understood as the
truncation of an infinite sequence with ``alpha[n] = 0`` for ``n >= N``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "weighted_norm",
    "gauge_apply",
    "GroundState",
    "SingleMode",
    "ground_amplitudes",
    "ground_derivative",
    "ground_second_derivative",
]


def weighted_norm(alpha: np.ndarray, s: float) -> float:
    """Weighted norm (sum (n+1)^{2s} |alpha_n|^2)^{1/2}."""
    alpha = np.asarray(alpha)
    weights = (np.arange(alpha.size) + 1.0) ** (2.0 * s)
    return float(np.sqrt(np.sum(weights * np.abs(alpha) ** 2)))


def gauge_apply(alpha: np.ndarray, theta: float, mu: float) -> np.ndarray:
    """Apply the gauge symmetries: alpha_n -> e^{i theta + i n mu} alpha_n."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    n = np.arange(alpha.size)
    return np.exp(1j * (theta + mu * n)) * alpha


def ground_amplitudes(p: float, n_modes: int) -> np.ndarray:
    """Normalized ground state A_n(p) = (1 - p^2) p^n, truncated."""
    _check_p(p)
    n = np.arange(n_modes)
    return (1.0 - p * p) * p**n


def ground_derivative(p: float, n_modes: int) -> np.ndarray:
    """dA/dp from the explicit derivative of (1 - p^2) p^n; regular at p = 0.

    A'_n(p) = n (1 - p^2) p^{n-1} - 2 p^{n+1}.
    """
    _check_p(p)
    n = np.arange(n_modes)
    low = p ** np.maximum(n - 1, 0) * np.where(n >= 1, 1.0, 0.0)
    return n * (1.0 - p * p) * low - 2.0 * p ** (n + 1)


def ground_second_derivative(p: float, n_modes: int) -> np.ndarray:
    """d^2A/dp^2 of A_n = p^n - p^{n+2}."""
    _check_p(p)
    n = np.arange(n_modes)
    low = p ** np.maximum(n - 2, 0) * np.where(n >= 2, 1.0, 0.0)
    return n * (n - 1) * low - (n + 2) * (n + 1) * p**n


def _check_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"ground-state parameter must lie in [0, 1), got {p}")


@dataclass(frozen=True)
class GroundState:
    """Tag of the normalized ground state A_n(p) = (1 - p^2) p^n, lambda = 1."""

    p: float

    def __post_init__(self) -> None:
        _check_p(self.p)


@dataclass(frozen=True)
class SingleMode:
    """Tag of the single-mode state c delta_{n, mode}, lambda = |c|^2."""

    mode: int
    c: complex = 1.0

    def __post_init__(self) -> None:
        if self.mode < 0:
            raise ValueError("mode index must be nonnegative")
