"""Moment method for Krylov chains.

Two transforms:

* ``moments_from_g``: Taylor moments of the large-q autocorrelation as
  polynomials in u = i*mu_tilde with rational coefficients, from the
  Liouville-type equation for f = e^(g/2) (f_tt = alpha^2 f - 2 f^3 with
  J = 1).  Its exponential-series recursion runs on integer polynomials in
  v = u/2, with Fractions only in the returned coefficients.
* ``moments_to_tridiagonal``: modified-Chebyshev style recursion from
  moments to Jacobi coefficients a_n, b_n^2.

The moment-to-coefficient recursion is catastrophically ill-conditioned in
floating point beyond n ~ 10, which is why it is ring-generic: it runs
unchanged on Fractions, on other exact numbers and on complex floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import MomentDegeneracyError, ValidationError
from .krylov import TridiagonalCoeffs

# ---------------------------------------------------------------------------
# integer polynomials in v = u/2 (coefficient lists, index = power)


def _ptrim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _binomial_product(p, q, k):
    """sum_i C(k, i) p_i q_(k-i), i = 0..k: the k-th exponential-series
    coefficient of p*q, for lists p and q of integer polynomials."""
    out = [0] * max(len(p[i]) + len(q[k - i]) - 1 for i in range(k + 1))
    for i in range(k + 1):
        c = comb(k, i)
        for a, pa in enumerate(p[i]):
            if pa:
                pa *= c
                for b, qb in enumerate(q[k - i], a):
                    out[b] += pa * qb
    return out


def moments_from_g(n_max: int):
    """Rescaled moments mt_n of 1 + g(t)/q as exact polynomials in u.

    Returns a list indexed by n: entry 0 is the normalization moment
    m_0 = 1, entry n >= 1 is mt_n (the physical moment is m_n = (2/q) mt_n).
    Each is the tuple of its Fraction coefficients on u^0, u^1, ..., with
    no trailing zeros.

    Works in v = u/2 and the variable x = it, where d^2/dx^2 = -d^2/dt^2:
    with J = 1 the function f = e^(g/2) satisfies
    f'' = -[(1 - v^2) f - 2 f^3] in x, f(0) = 1 and f'(0) = v.  So the
    exponential-series coefficients F_k = k! [x^k] f are integer polynomials
    in v, F_(k+2) = 2 (F^3)_k - (1 - v^2) F_k, with (F^3)_k the
    binomial-weighted convolution.  H = f'/f follows from
    sum_i C(k, i) H_i F_(k-i) = F_(k+1), and g = 2 log f makes
    mt_n = H_(n-1), whose coefficient on u^j is that on v^j over 2^j.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if n_max > 64:
        raise ValidationError("n_max above 64 not supported (series cost)")
    f = [[1], [0, 1]]
    f2 = []
    for k in range(n_max - 1):
        f2.append(_binomial_product(f, f, k))
        nxt = [2 * c for c in _binomial_product(f2, f, k)] + [0, 0]
        for j, c in enumerate(f[k]):
            nxt[j] -= c
            nxt[j + 2] += c
        f.append(nxt)
    h = []
    for k in range(n_max):
        h.append([0])   # the i = k term of the sum is H_k F_0 = H_k
        rest = _binomial_product(h, f, k)
        h[k] = [c - rest[j] if j < len(rest) else c for j, c in enumerate(f[k + 1])]
    return [(Fraction(1),)] + [tuple(Fraction(c, 2 ** j) for j, c in enumerate(_ptrim(hk)))
                               for hk in h]


def large_q_moment_sequence(q: int, mu_tilde, n_max: int, polys) -> list:
    """Physical moments m_0 = 1, m_n = (2/q) mt_n(u = i*mu_tilde) of the
    large-q model, as complex floats; polys is a ``moments_from_g`` result
    reaching at least n_max.  Each polynomial is evaluated by Horner's rule
    from its highest coefficient down."""
    u = 1j * mu_tilde
    out = [1]
    for p in polys[1:n_max + 1]:
        acc = 0
        for c in reversed(p):
            acc = acc * u + c
        out.append(2 * acc / q)
    return out


def moments_to_tridiagonal(m, n_max: int) -> TridiagonalCoeffs:
    """Jacobi coefficients a_0..a_n_max, b_1^2..b_n_max^2 from moments.

    Runs the modified-Chebyshev recursion on the mixed moments
    sigma_(k,l) = <pi_k, x^l> of the monic orthogonal polynomials:
    sigma_(k,l) = sigma_(k-1,l+1) - a_(k-1) sigma_(k-1,l) - b_(k-1)^2 sigma_(k-2,l),
    a_k = sigma_(k,k+1)/sigma_(k,k) - sigma_(k-1,k)/sigma_(k-1,k-1),
    b_k^2 = sigma_(k,k)/sigma_(k-1,k-1).

    Needs moments m_0..m_(2 n_max + 1); exact in exact arithmetic.
    """
    values = list(m)
    need = 2 * n_max + 2
    if len(values) < need:
        raise ValidationError(
            f"need m_0..m_{need - 1} for n_max={n_max}, got {len(values)} moments")
    if values[0] == 0:
        raise MomentDegeneracyError("m_0 vanishes")
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
        if row[k] == 0:   # sigma_(k-1,k-1) was checked a step earlier, or is m_0
            raise MomentDegeneracyError(f"vanishing pivot sigma_({k},{k})")
        b_sq.append(row[k] / row_prev[k - 1])
        a.append(row[k + 1] / row[k] - row_prev[k] / row_prev[k - 1])
        row_pprev, row_prev = row_prev, row
    return TridiagonalCoeffs(a=a, b_sq=b_sq)
