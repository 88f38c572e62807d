"""One monic Krylov recurrence over abstract operator spaces.

``lanczos`` calls two methods of its vectors, ``v.inner(u)`` and
``u.iaxpy(c, v)`` (u += c v on the fresh vector the map returned), and a
scalar product, so it runs unchanged over Jordan-Wigner Majorana
operators and float or exact rational diagram states.  Each step projects
the new vector on the whole basis and then reorthogonalizes it once more:
the structural diagnostics (the per-column deviation from a symmetric
tridiagonal matrix) are meaningless under Gram-Schmidt drift.
What the loop records depends on the map: for a Hermitian map the
tridiagonal chain coefficients a_n, b_n^2 (TridiagonalCoeffs), for a
general map, such as the Lindbladian, the Hessenberg matrix of all the
projections (HessenbergMatrix), which is what Arnoldi iteration computes.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NumericalContractError

# a Hermitian map's |Im a_k| and back-coupling mismatch stay below this times its scale
HERMITICITY_RTOL = 1e-8
# the Krylov space has closed when a new vector's norm falls this far below scale
BREAKDOWN_RTOL = 1e-10


@dataclass
class HessenbergMatrix:
    """Upper Hessenberg matrix in the orthonormal Krylov basis, plus its size.

    h is (n_max+1) x (n_max+1); columns at index >= basis_dim are zero when
    the Krylov space closed early.  Subdiagonal entries are real >= 0, the
    ratios of consecutive basis norms.
    """

    h: np.ndarray
    basis_dim: int


@dataclass
class TridiagonalCoeffs:
    """Krylov chain coefficients a_n (n >= 0) and b_n^2 (n >= 1).

    b_sq[i] holds b_(i+1)^2, exact when the recurrence ran in exact
    arithmetic (the square roots may be irrational).
    """

    a: list
    b_sq: list

    def __post_init__(self):
        if len(self.a) != len(self.b_sq) + 1:
            raise NumericalContractError(
                f"need |a| = |b_sq| + 1, got {len(self.a)} and {len(self.b_sq)}")

    @property
    def b(self):
        """b_n = sqrt(b_n^2), the principal root: a float where it is real."""
        roots = [cmath.sqrt(complex(x)) for x in self.b_sq]
        return [r.real if r.imag == 0.0 else r for r in roots]

    def a_array(self):
        return np.asarray(self.a, dtype=complex)

    def b_array(self):
        """The b_n as one complex array: the principal roots that b holds."""
        return np.sqrt(np.asarray(self.b_sq, dtype=complex))


def lanczos(apply, u0, n_max, hermitian=True, last_diagonal=True):
    """Krylov recurrence of Hermitian (Lanczos) or general (Arnoldi) maps.

    Returns (coefficients, basis).  u_(k+1) = L u_k - sum_(j<=k) c_jk u_j,
    with c_jk = <u_j, L u_k>/h_j and h_k = <u_k, u_k>; u0 need not have
    unit norm.

    hermitian=True runs the monic three-term form
    u_(k+1) = L u_k - a_k u_k - b_k^2 u_(k-1), a_k = c_kk and
    b_(k+1)^2 = h_(k+1)/h_k, and returns TridiagonalCoeffs and the monic
    basis.  No square roots are taken, so it runs unchanged in any scalar
    ring the vector type uses: floats, complex numbers or exact Fractions.
    Non-Hermiticity is detected from a complex a_k and from the overlap
    <u_(k-1), L u_k>, which for a Hermitian map equals h_k.
    hermitian=False records every c_jk and divides each new vector by
    b_(k+1), so that the whole basis keeps the norm of u0: monic norms,
    products of the b_k^2, leave the float range within a few hundred
    steps.  It returns the HessenbergMatrix (c_jk) of the normalized basis,
    with subdiagonal b_(k+1), and that basis times |u0|.  Breakdown (the
    Krylov space closing) ends the loop early, not with an error.

    Full reorthogonalization is always applied; its corrections add to the
    recorded c_jk.  An exact (rational) projection coefficient must vanish,
    and a nonzero one raises, so in Fraction arithmetic orthogonality is
    asserted rather than assumed.
    last_diagonal=False skips the final application of the map, recording
    a_n_max = 0 instead; appropriate for maps that change a conserved
    grading by one, where every diagonal element vanishes identically
    (and where that last application would be by far the most expensive).
    """
    basis = [u0]
    norms = [u0.inner(u0).real]
    a = []
    b_sq = []
    proj = np.zeros((n_max + 1, n_max + 1), dtype=complex)   # c_jk
    scale = None
    for k in range(n_max + 1):
        if k == n_max and not last_diagonal:
            a.append(0)
            break
        u = apply(basis[k])
        h = norms[k]
        if scale is None:
            scale = max(math.sqrt(abs(u.inner(u)) / abs(h)), 1e-300)
        if hermitian:
            ak = basis[k].inner(u) / h
            if abs(ak.imag) > HERMITICITY_RTOL * scale:
                raise NumericalContractError(
                    f"non-Hermitian map: a_{k} = {ak} has large imaginary part")
            a.append(ak.real)
            if k > 0:
                # |back - h_k| <= rtol * scale * sqrt(h_k h_(k-1)), divided by h_k
                # so that it still holds where the norms, which shrink
                # geometrically at large q, underflow
                back = basis[k - 1].inner(u)
                if abs(back / h - 1) > HERMITICITY_RTOL * scale / math.sqrt(abs(b_sq[-1])):
                    raise NumericalContractError(
                        f"non-Hermitian map: back-coupling {back} != h_{k} = {h}")
                u.iaxpy(-b_sq[-1], basis[k - 1])
            u.iaxpy(-a[-1], basis[k])
        else:
            proj[: k + 1, k] = [v.inner(u) / hv for v, hv in zip(basis, norms)]
            for v, c in zip(basis, proj[: k + 1, k]):
                u.iaxpy(-c, v)
        for j, (v, hv) in enumerate(zip(basis, norms)):
            c = v.inner(u) / hv
            if not isinstance(c, numbers.Rational):
                u.iaxpy(-c, v)
                proj[j, k] += c
            elif c:
                raise NumericalContractError(
                    f"monic recurrence lost exact orthogonality at step {k}")
        if k == n_max:
            break
        h_next = u.inner(u).real
        if h_next / h <= (BREAKDOWN_RTOL * scale) ** 2:
            break
        b_sq.append(h_next / h)
        if not hermitian:
            u = u * (1.0 / math.sqrt(b_sq[-1]))
            h_next = h
        basis.append(u)
        norms.append(h_next)
    if not hermitian:
        d = len(basis)
        proj[np.arange(1, d), np.arange(d - 1)] = np.sqrt(b_sq)
        return HessenbergMatrix(h=proj, basis_dim=d), basis
    return TridiagonalCoeffs(a=a, b_sq=b_sq), basis


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


def diagonal_slope_fit(hm: HessenbergMatrix, n_max):
    """Least-squares slope of Im h_(n,n) against n over [1, n_max].

    Returns (slope, r_squared); divide by mu to estimate the growth
    exponent chi.
    """
    n_max = min(n_max, hm.basis_dim - 1)
    ns = np.arange(1, n_max + 1)
    if ns.size < 2:
        raise FitError(f"fit window [1, {n_max}] has fewer than 2 diagonal entries")
    ys = np.imag(np.diagonal(hm.h)[ns])
    slope, intercept = np.polyfit(ns, ys, 1)
    resid = ys - (slope * ns + intercept)
    total = ys - np.mean(ys)
    denom = float(np.dot(total, total))
    r2 = 1.0 if denom == 0.0 else 1.0 - float(np.dot(resid, resid)) / denom
    return float(slope), float(r2)
