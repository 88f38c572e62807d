"""Moment method for Krylov chains.

Two transforms, both in exact arithmetic when the inputs are exact:

* ``moments_from_g``: Taylor moments of the large-q autocorrelation as
  polynomials in u = i*mu_tilde, obtained by solving the Liouville-type
  series recursion for f = e^(g/2) (f'' = alpha^2 f - 2 f^3 with J = 1).
* ``moments_to_tridiagonal``: modified-Chebyshev style recursion from
  moments to Jacobi coefficients a_n, b_n^2.

The moment-to-coefficient recursion is catastrophically ill-conditioned in
floating point beyond n ~ 10, which is why everything here is ring-generic:
Fraction, sympy exact numbers, and plain complex all work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import MomentDegeneracyError, ValidationError
from .krylov import TridiagonalCoeffs

# ---------------------------------------------------------------------------
# dense Fraction polynomials in u (coefficient tuples, index = power)

_ZERO = ()


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    return tuple(c + q[i] if i < len(q) else c for i, c in enumerate(p))


def _pscale(p, s):
    return tuple(c * s for c in p)


def _pmul(p, q):
    if not p or not q:
        return _ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _ptrim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


@dataclass(frozen=True)
class MomentPolynomial:
    """Exact polynomial in u = i*mu_tilde with rational coefficients."""

    coeffs: tuple

    @property
    def degree(self):
        t = _ptrim(self.coeffs)
        return len(t) - 1 if t else -1

    def __call__(self, u):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def __eq__(self, other):
        if isinstance(other, MomentPolynomial):
            return _ptrim(self.coeffs) == _ptrim(other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash(_ptrim(self.coeffs))

    def __repr__(self):
        t = _ptrim(self.coeffs)
        if not t:
            return "MomentPolynomial(0)"
        parts = []
        for k, c in enumerate(t):
            if c == 0:
                continue
            parts.append(f"{c}" if k == 0 else (f"u^{k}" if c == 1 else f"{c}*u^{k}"))
        return "MomentPolynomial(" + " + ".join(parts) + ")"


def moments_from_g(n_max: int):
    """Rescaled moments mt_n of 1 + g(t)/q as exact polynomials in u.

    Returns a list indexed by n: entry 0 is the normalization moment
    m_0 = 1, entry n >= 1 is mt_n (the physical moment is m_n = (2/q) mt_n).

    Works in the variable x = it: with J = 1 the function f = e^(g/2)
    satisfies f'' = alpha^2 f - 2 f^3, alpha^2 = 1 - u^2/4, f(0) = 1,
    f'(0) = iu/2, so the x-series of f has real rational polynomial
    coefficients r_k and the series recursion is exact.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if n_max > 64:
        raise ValidationError("n_max above 64 not supported (series cost)")
    alpha_sq = (Fraction(1), Fraction(0), Fraction(-1, 4))
    r = [(Fraction(1),), (Fraction(0), Fraction(1, 2))]
    f2 = []
    f3 = []
    for k in range(n_max + 1):
        if k >= 2 and k >= len(r):
            num = _padd(_pmul(alpha_sq, r[k - 2]), _pscale(f3[k - 2], Fraction(-2)))
            r.append(_pscale(num, Fraction(-1, (k - 1) * k)))
        rk = r[k] if k < len(r) else _ZERO
        acc2 = _ZERO
        for i in range(k + 1):
            acc2 = _padd(acc2, _pmul(r[i] if i < len(r) else _ZERO,
                                     r[k - i] if k - i < len(r) else _ZERO))
        f2.append(acc2)
        acc3 = _ZERO
        for i in range(k + 1):
            acc3 = _padd(acc3, _pmul(f2[i], r[k - i] if k - i < len(r) else _ZERO))
        f3.append(acc3)
    # g = 2 log f via h = f'/f, solved from h * f = f' (f_0 = 1)
    h = []
    for k in range(n_max):
        hk = _pscale(r[k + 1], Fraction(k + 1))
        for i in range(k):
            hk = _padd(hk, _pscale(_pmul(h[i], r[k - i]), Fraction(-1)))
        h.append(hk)
    out = [MomentPolynomial((Fraction(1),))]
    for n in range(1, n_max + 1):
        g_n = _pscale(h[n - 1], Fraction(2, n))
        out.append(MomentPolynomial(_ptrim(_pscale(g_n, Fraction(factorial(n), 2)))))
    return out


@dataclass
class MomentSequence:
    """Moments m_n, n = 0..n_max, of a unit-norm operator (m_0 = 1)."""

    values: list

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValidationError("moment sequence must start with m_0 = 1")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]


def large_q_moment_sequence(q: int, mu_tilde, n_max: int) -> MomentSequence:
    """Physical moments m_n = (2/q) mt_n(u = i*mu_tilde) of the large-q model.

    Exact when mu_tilde is an exact type (Fraction times sympy.I works);
    complex floats otherwise.
    """
    polys = moments_from_g(n_max)
    u = 1j * mu_tilde if isinstance(mu_tilde, (int, float)) else mu_tilde
    values = [1] + [(2 * polys[n](u)) / q for n in range(1, n_max + 1)]
    return MomentSequence(values=values)


def _is_zero(v):
    flag = getattr(v, "is_zero", None)
    if flag is not None and not callable(flag):
        return bool(flag)
    return v == 0


def moments_to_tridiagonal(m, n_max: int) -> TridiagonalCoeffs:
    """Jacobi coefficients a_0..a_n_max, b_1^2..b_n_max^2 from moments.

    Runs the modified-Chebyshev recursion on the mixed moments
    sigma_(k,l) = <pi_k, x^l> of the monic orthogonal polynomials:
    sigma_(k,l) = sigma_(k-1,l+1) - a_(k-1) sigma_(k-1,l) - b_(k-1)^2 sigma_(k-2,l),
    a_k = sigma_(k,k+1)/sigma_(k,k) - sigma_(k-1,k)/sigma_(k-1,k-1),
    b_k^2 = sigma_(k,k)/sigma_(k-1,k-1).

    Needs moments m_0..m_(2 n_max + 1); exact in exact arithmetic.
    """
    values = list(m.values) if isinstance(m, MomentSequence) else list(m)
    need = 2 * n_max + 2
    if len(values) < need:
        raise ValidationError(
            f"need m_0..m_{need - 1} for n_max={n_max}, got {len(values)} moments")
    if _is_zero(values[0]):
        raise MomentDegeneracyError(0, 0, "m_0 vanishes")
    row_prev = values[:need]            # sigma_0, valid for all l
    row_pprev = None
    a = [values[1] / values[0]]
    b_sq = []
    for k in range(1, n_max + 1):
        row = [0] * need
        for l in range(k, need - k):
            s = row_prev[l + 1] - a[k - 1] * row_prev[l]
            if k >= 2:
                s = s - b_sq[k - 2] * row_pprev[l]
            row[l] = s
        if _is_zero(row_prev[k - 1]):
            raise MomentDegeneracyError(k - 1, k - 1)
        if _is_zero(row[k]):
            raise MomentDegeneracyError(k, k)
        b_sq.append(row[k] / row_prev[k - 1])
        a.append(row[k + 1] / row[k] - row_prev[k] / row_prev[k - 1])
        row_pprev, row_prev = row_prev, row
    return TridiagonalCoeffs(a=a, b_sq=b_sq)
