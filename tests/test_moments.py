"""Moment polynomials and the moment <-> tridiagonal transforms."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from dsyk.errors import MomentDegeneracyError, ValidationError
from dsyk.krylov import TridiagonalCoeffs
from dsyk.moments import (
    large_q_moment_sequence,
    moments_from_g,
    moments_to_tridiagonal,
)
from oracles import (
    has_parity_of, horner, jacobi_moments, series_moments_from_g, tridiagonal_to_series)

F = Fraction

# published rescaled moment polynomials of the large-q autocorrelation,
# coefficients of u^0, u^1, ... (mt_7 fixed to respect moment parity)
MT_TABLE = {
    2: (1,),
    3: (0, 1),
    4: (2, 0, 1),
    5: (0, 8, 0, 1),
    6: (16, 0, 22, 0, 1),
    7: (0, 136, 0, 52, 0, 1),
    8: (272, 0, 720, 0, 114, 0, 1),
}


def test_moment_polynomial_table():
    polys = moments_from_g(8)
    for n, coeffs in MT_TABLE.items():
        assert polys[n] == tuple(F(c) for c in coeffs)


def test_integer_recursion_matches_fraction_series():
    # the integer exponential-series recursion against the Fraction Taylor
    # series it replaced: equal polynomials, printed identically
    fast, ref = moments_from_g(40), series_moments_from_g(40)
    assert fast == ref
    for p, r in zip(fast, ref):
        assert [str(c) for c in p] == [str(c) for c in r]


def test_moment_polynomial_parity():
    polys = moments_from_g(14)
    for n in range(1, 15):
        assert has_parity_of(polys[n], n)


def test_first_moment_is_dissipative_diagonal():
    # mt_1 = u/2, i.e. m_1 = (2/q) mt_1(i mu~) = i mu: the a_0 = i mu s
    # diagonal with s = 1
    assert moments_from_g(3)[1] == (F(0), F(1, 2))


def test_moment_polynomials_have_no_trailing_zeros():
    # the CSV's degree column is the tuple length less one
    assert all(p[-1] != 0 for p in moments_from_g(20))


def test_large_q_moment_sequence_evaluates_each_polynomial():
    # m_1 = (2/q) mt_1(i mu~) with mt_1 = 2 + u^2: 2 + (3i)^2 = -7 at mu~ = 3
    # and 2 + i^2 = 1 at mu~ = 1
    polys = [(F(1),), (F(2), F(0), F(1))]
    assert large_q_moment_sequence(2, 3.0, 1, polys) == [1, -7]
    assert large_q_moment_sequence(4, 1.0, 1, polys) == [1, 0.5]


def test_moments_from_g_bounds():
    with pytest.raises(ValidationError):
        moments_from_g(-1)
    with pytest.raises(ValidationError):
        moments_from_g(65)


def test_large_q_moment_sequence_closed_system():
    # mu_tilde = 0: m_2 = 2/q, m_3 = 0, m_4 = 2*2/q
    m = large_q_moment_sequence(4, 0.0, 4, moments_from_g(4))
    assert m[0] == 1
    assert m[1] == 0
    assert m[2] == pytest.approx(0.5)
    assert m[3] == 0
    assert m[4] == pytest.approx(1.0)


def test_meixner_roundtrip_exact():
    # moments of the exact chain a_n = iu(2n+eta), b_n^2 = (1-u^2)n(n-1+eta)
    # must return the same chain through the recursion, in sympy exact terms
    u, eta = sp.Rational(1, 3), sp.Rational(3, 2)
    n_max = 6
    a = [sp.I * u * (2 * n + eta) for n in range(n_max + 2)]
    b_sq = [(1 - u ** 2) * n * (n - 1 + eta) for n in range(1, n_max + 2)]
    c = TridiagonalCoeffs(a=a, b_sq=b_sq)
    moments = jacobi_moments(c, 2 * n_max + 2)
    back = moments_to_tridiagonal(moments, n_max)
    for n in range(n_max + 1):
        assert sp.simplify(back.a[n] - a[n]) == 0
    for n in range(n_max):
        assert sp.simplify(back.b_sq[n] - b_sq[n]) == 0


def test_jacobi_moments_equal_continued_fraction_series():
    a = [F(0), F(1, 2), F(-1, 3), F(2)]
    b_sq = [F(1), F(3, 4), F(5)]
    c = TridiagonalCoeffs(a=a, b_sq=b_sq)
    assert jacobi_moments(c, 6) == tridiagonal_to_series(c, 6)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
       st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_roundtrip_on_random_rational_chains(a_raw, b_raw):
    a = [F(x, 2) for x in a_raw]
    b_sq = [F(x) for x in b_raw]
    c = TridiagonalCoeffs(a=a, b_sq=b_sq)
    moments = jacobi_moments(c, 7)
    back = moments_to_tridiagonal(moments, 3)
    assert back.a == a
    assert back.b_sq == b_sq


def test_degenerate_moments_raise():
    # moments of a single point mass: Krylov space closes, pivot vanishes
    c = TridiagonalCoeffs(a=[F(1), F(1)], b_sq=[F(0)])
    moments = [F(1)] + [F(1)] * 7  # all moments of delta at x = 1
    with pytest.raises(MomentDegeneracyError):
        moments_to_tridiagonal(moments, 3)
    del c


def test_moments_to_tridiagonal_needs_enough_moments():
    with pytest.raises(ValidationError):
        moments_to_tridiagonal([1, 0, 1], 3)


def test_tridiagonal_to_series_depth_guard():
    c = TridiagonalCoeffs(a=[F(0)], b_sq=[])
    with pytest.raises(ValidationError):
        tridiagonal_to_series(c, 6)


def test_large_q_continued_fraction_identity():
    # the generating series of the rescaled moments equals the continued
    # fraction with a~_k = (k+1)u, b~_k^2 = k(k+1), coefficient-exact in u
    u = sp.symbols("u")
    n_max = 10
    polys = moments_from_g(n_max + 2)
    series = [sp.Integer(1)]
    for n in range(1, n_max + 1):
        series.append(sp.expand(horner(polys[n + 2], u)))
    a = [(k + 1) * u for k in range(n_max // 2 + 1)]
    b_sq = [sp.Integer(k * (k + 1)) for k in range(1, n_max // 2 + 1)]
    c = TridiagonalCoeffs(a=a, b_sq=b_sq)
    cf = tridiagonal_to_series(c, n_max)
    for n in range(n_max + 1):
        assert sp.expand(cf[n] - series[n]) == 0
