"""Closed-form large-q results for the dissipative Krylov chain.

The solvable chain has b_n^2 = (1-u^2) n (n-1+eta), a_n = i u (2n+eta)
(Meixner polynomial coefficients); for SYK eta = 2/q and 2u = mu_tilde.
This module provides the chain coefficients, the exact K-complexity and
variance, and their saturation values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .krylov import TridiagonalCoeffs


@dataclass(frozen=True)
class MeixnerParams:
    """Dissipation parameter u in [0, 1) and chain offset eta > 0."""

    u: float
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.u < 1.0:
            raise ValidationError(f"u={self.u} must lie in [0, 1)")
        if self.eta <= 0.0:
            raise ValidationError(f"eta={self.eta} must be positive")


def meixner_tridiagonal(p: MeixnerParams, n_max: int) -> TridiagonalCoeffs:
    """Chain coefficients a_n = iu(2n+eta), b_n^2 = (1-u^2) n (n-1+eta)."""
    ns = np.arange(n_max + 1)
    a = list(1j * p.u * (2 * ns + p.eta))
    b_sq = [(1.0 - p.u ** 2) * n * (n - 1 + p.eta) for n in range(1, n_max + 1)]
    return TridiagonalCoeffs(a=a, b_sq=b_sq)


def _denominator(th, u):
    return 1.0 + 2.0 * u * th - (1.0 - 2.0 * u ** 2) * th ** 2


def k_complexity_exact(t, p: MeixnerParams):
    """K(t) = eta (1-u^2) tanh^2 t / (1 + 2u tanh t - (1-2u^2) tanh^2 t)."""
    th = np.tanh(np.asarray(t, dtype=float))
    out = p.eta * (1.0 - p.u ** 2) * th ** 2 / _denominator(th, p.u)
    return out if out.shape else float(out)


def variance_exact(t, p: MeixnerParams):
    """Connected size variance eta(1-u^2)tanh^2 t (u tanh t + 1)^2 / denom^2."""
    th = np.tanh(np.asarray(t, dtype=float))
    out = (p.eta * (1.0 - p.u ** 2) * th ** 2 * (p.u * th + 1.0) ** 2
           / _denominator(th, p.u) ** 2)
    return out if out.shape else float(out)


def k_saturation(p: MeixnerParams) -> float:
    """K(t -> infinity) = eta/(2u) - eta/2 (infinite for u = 0)."""
    if p.u == 0.0:
        return math.inf
    return p.eta / (2.0 * p.u) - p.eta / 2.0


def variance_saturation(p: MeixnerParams) -> float:
    """Exact t -> infinity variance eta (1-u^2)/(4u^2) (~ eta/(4u^2) for small u)."""
    if p.u == 0.0:
        return math.inf
    return p.eta * (1.0 - p.u ** 2) / (4.0 * p.u ** 2)
