"""Arnoldi iteration and the monic Lanczos recurrence over abstract operator spaces.

The routines only need the vector operations +, -, scalar *, and an inner
product, so they run unchanged over numpy arrays, Jordan-Wigner Majorana
operators, and large-N diagram states; Lanczos also over exact rational
diagram states.  Full reorthogonalization is on by default in Arnoldi and
always on in Lanczos: the structural diagnostics (the per-column deviation
from a symmetric tridiagonal matrix) are meaningless under Gram-Schmidt
drift.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, NormalizationError, NumericalContractError


def _dot(a, b):
    """<a, b> in the vector type's own scalar ring, conjugate-linear in a."""
    if isinstance(a, np.ndarray):
        return np.vdot(a, b)
    return a.inner(b)


def _inner(a, b):
    return complex(_dot(a, b))


def _norm(v):
    return float(np.sqrt(abs(_inner(v, v).real)))


def _axpy(u, c, v):
    """u + c*v; mutates u in place when the vector type supports iaxpy.

    Only ever called on freshly produced residual vectors, never on stored
    basis elements.
    """
    if hasattr(u, "iaxpy"):
        u.iaxpy(c, v)
        return u
    return u + c * v


@dataclass
class HessenbergMatrix:
    """Upper Hessenberg matrix from Arnoldi, plus the achieved basis size.

    h is (n_max+1) x (n_max+1); columns at index >= basis_dim are zero when
    the Krylov space closed early.  Subdiagonal entries are real >= 0 by the
    Arnoldi normalization.
    """

    h: np.ndarray
    basis_dim: int

    def diagonal(self):
        return np.diagonal(self.h)[: self.basis_dim]

    def subdiagonal(self):
        return np.diagonal(self.h, -1)[: self.basis_dim - 1].real


@dataclass
class TridiagonalCoeffs:
    """Krylov chain coefficients a_n (n >= 0) and b_n (n >= 1).

    b[i] holds b_(i+1).  When the coefficients were produced by exact
    arithmetic, b_sq carries the exact squares (the square roots may be
    irrational); otherwise b_sq is simply b**2.
    """

    a: list
    b: list
    b_sq: list = field(default=None)

    def __post_init__(self):
        if self.b_sq is None:
            self.b_sq = [bv * bv for bv in self.b]
        if len(self.a) != len(self.b) + 1:
            raise NumericalContractError(
                f"need |a| = |b| + 1, got {len(self.a)} and {len(self.b)}")

    def a_array(self):
        return np.asarray([complex(x) for x in self.a])

    def b_array(self):
        return np.asarray([complex(x) for x in self.b])


def arnoldi(apply, o0, n_max, reorth=True, breakdown_rtol=1e-10):
    """Arnoldi iteration: returns (HessenbergMatrix, orthonormal basis).

    apply is any linear map on the vector type of o0.  Breakdown (the
    Krylov space closing) is reported through basis_dim, not an error.
    """
    if abs(_norm(o0) - 1.0) > 1e-12:
        raise NormalizationError(f"initial operator has norm {_norm(o0)!r}, expected 1")
    h = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    basis = [o0]
    scale = None
    for k in range(1, n_max + 1):
        u = apply(basis[k - 1])
        if scale is None:
            scale = max(_norm(u), 1e-300)
        coeffs = [_inner(v, u) for v in basis]
        for j, (v, c) in enumerate(zip(basis, coeffs)):
            h[j, k - 1] = c
            u = _axpy(u, -c, v)
        if reorth:
            for j, v in enumerate(basis):
                c = _inner(v, u)
                h[j, k - 1] += c
                u = _axpy(u, -c, v)
        beta = _norm(u)
        if beta < breakdown_rtol * scale:
            return HessenbergMatrix(h=h, basis_dim=k), basis
        h[k, k - 1] = beta
        basis.append(u * (1.0 / beta))
    # one more column of projections so the last diagonal entry is filled
    u = apply(basis[n_max])
    for j, v in enumerate(basis):
        h[j, n_max] = _inner(v, u)
    return HessenbergMatrix(h=h, basis_dim=n_max + 1), basis


def lanczos(apply, u0, n_max, last_diagonal=True, hermiticity_rtol=1e-8,
            breakdown_rtol=1e-10):
    """Monic Hermitian three-term recurrence; returns (TridiagonalCoeffs, basis).

    u_(k+1) = L u_k - a_k u_k - b_k^2 u_(k-1), with a_k = <u_k, L u_k>/h_k,
    b_(k+1)^2 = h_(k+1)/h_k and h_k = <u_k, u_k>.  No square roots are
    taken, so the recurrence runs unchanged in any scalar ring the vector
    type uses: floats, complex numbers or exact Fractions.  The basis is
    returned monic (unnormalized) and u0 need not have unit norm.

    Full reorthogonalization is always applied.  An exact (rational)
    projection coefficient must vanish, and a nonzero one raises, so in
    Fraction arithmetic orthogonality is asserted rather than assumed.
    Non-Hermiticity is detected from a complex a_k and from the overlap
    <u_(k-1), L u_k>, which for a Hermitian map equals h_k.
    last_diagonal=False skips the final application of the map, recording
    a_n_max = 0 instead; appropriate for maps that change a conserved
    grading by one, where every diagonal element vanishes identically
    (and where that last application would be by far the most expensive).
    """
    basis = [u0]
    norms = [_dot(u0, u0).real]
    a = []
    b_sq = []
    scale = None
    for k in range(n_max + 1):
        if k == n_max and not last_diagonal:
            a.append(0)
            break
        u = apply(basis[k])
        h = norms[k]
        if scale is None:
            scale = max(math.sqrt(abs(_dot(u, u)) / abs(h)), 1e-300)
        ak = _dot(basis[k], u) / h
        if abs(ak.imag) > hermiticity_rtol * scale:
            raise NumericalContractError(
                f"non-Hermitian map: a_{k} = {ak} has large imaginary part")
        a.append(ak.real)
        if k > 0:
            # |back - h_k| <= rtol * scale * sqrt(h_k h_(k-1)), divided by h_k
            # so that it still holds where the norms, which shrink
            # geometrically at large q, underflow
            back = _dot(basis[k - 1], u)
            if abs(back / h - 1) > hermiticity_rtol * scale / math.sqrt(abs(b_sq[-1])):
                raise NumericalContractError(
                    f"non-Hermitian map: back-coupling {back} != h_{k} = {h}")
            u = _axpy(u, -b_sq[-1], basis[k - 1])
        u = _axpy(u, -a[-1], basis[k])
        for v, hv in zip(basis, norms):
            c = _dot(v, u) / hv
            if not isinstance(c, numbers.Rational):
                u = _axpy(u, -c, v)
            elif c:
                raise NumericalContractError(
                    f"monic recurrence lost exact orthogonality at step {k}")
        if k == n_max:
            break
        h_next = _dot(u, u).real
        if h_next / h <= (breakdown_rtol * scale) ** 2:
            break
        b_sq.append(h_next / h)
        basis.append(u)
        norms.append(h_next)
    b = [math.sqrt(float(x)) for x in b_sq]
    return TridiagonalCoeffs(a=a, b=b, b_sq=b_sq), basis


def hessenberg_error(hm: HessenbergMatrix):
    """Per-column deviation from a symmetric tridiagonal matrix.

    eps_n^2 = |h_(n-1,n) - h_(n,n-1)|^2 + sum_(k<n-1) |h_(k,n)|^2, n >= 1.
    """
    h = hm.h
    d = hm.basis_dim
    eps = np.zeros(d - 1)
    for n in range(1, d):
        e2 = abs(h[n - 1, n] - h[n, n - 1]) ** 2
        e2 += float(np.sum(np.abs(h[: n - 1, n]) ** 2))
        eps[n - 1] = np.sqrt(e2)
    return eps


def diagonal_slope_fit(hm: HessenbergMatrix, n_min=1, n_max=None):
    """Least-squares slope of Im h_(n,n) against n over [n_min, n_max].

    Returns (slope, r_squared); divide by mu to estimate the growth
    exponent chi.
    """
    if n_max is None:
        n_max = hm.basis_dim - 1
    n_max = min(n_max, hm.basis_dim - 1)
    ns = np.arange(n_min, n_max + 1)
    if ns.size < 2:
        raise FitError(f"fit window [{n_min}, {n_max}] has fewer than 2 diagonal entries")
    ys = np.imag(np.diagonal(hm.h)[ns])
    slope, intercept = np.polyfit(ns, ys, 1)
    resid = ys - (slope * ns + intercept)
    total = ys - np.mean(ys)
    denom = float(np.dot(total, total))
    r2 = 1.0 if denom == 0.0 else 1.0 - float(np.dot(resid, resid)) / denom
    return float(slope), float(r2)
