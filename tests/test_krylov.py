"""The Krylov driver's two modes on dense matrices vs a textbook oracle.

The driver calls its vectors' own inner and iaxpy, so numpy vectors enter
it wrapped as oracles.ArrayVector.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsyk.cli import arnoldi
from dsyk.errors import FitError, NumericalContractError
from dsyk.krylov import (
    HessenbergMatrix,
    TridiagonalCoeffs,
    diagonal_slope_fit,
    hessenberg_error,
    lanczos,
)
from oracles import ArrayVector, array_map, gram_schmidt_hessenberg


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_start(n, seed):
    rng = np.random.default_rng(seed + 1000)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arnoldi_matches_dense_oracle(seed):
    n = 12
    mat = random_hermitian(n, seed) + 1j * np.diag(np.arange(n) * 0.1)
    v0 = random_start(n, seed)
    hm, basis = arnoldi(array_map(mat), ArrayVector(v0), 8)
    h_ref, _ = gram_schmidt_hessenberg(mat, v0, 8)
    assert hm.basis_dim == 9
    assert np.allclose(hm.h, h_ref, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 3])
def test_arnoldi_basis_orthonormal(seed):
    mat = random_hermitian(10, seed)
    _, basis = arnoldi(array_map(mat), ArrayVector(random_start(10, seed)), 9)
    basis = [v.a / np.linalg.norm(v.a) for v in basis]
    g = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    assert np.max(np.abs(g - np.eye(len(basis)))) < 1e-12


def test_arnoldi_start_norm_does_not_matter():
    # a non-normal map (upper triangle added to a complex symmetric one):
    # the Hessenberg matrix belongs to the normalized basis, whatever the
    # norm of the start
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    mat = mat + mat.T + np.triu(rng.normal(size=(10, 10)), 1)
    assert np.linalg.norm(mat @ mat.conj().T - mat.conj().T @ mat) > 1.0
    v0 = random_start(10, 11)
    hm1, _ = arnoldi(array_map(mat), ArrayVector(v0), 8)
    hm3, _ = arnoldi(array_map(mat), ArrayVector(3.0 * v0), 8)
    assert hm1.basis_dim == hm3.basis_dim == 9
    assert np.max(np.abs(hm1.h - hm3.h)) < 1e-12


def test_arnoldi_reports_breakdown_via_basis_dim():
    # rank-deficient Krylov space: start vector in a 2d invariant subspace
    mat = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    v0 = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
    hm, basis = arnoldi(array_map(mat), ArrayVector(v0), 4)
    assert hm.basis_dim == 2
    assert len(basis) == 2


def test_lanczos_matches_arnoldi_on_hermitian():
    mat = random_hermitian(14, 7)
    v0 = random_start(14, 7)
    hm, _ = arnoldi(array_map(mat), ArrayVector(v0), 10)
    c, _ = lanczos(array_map(mat), ArrayVector(v0), 10)
    d = hm.basis_dim
    assert np.allclose(np.real(np.diagonal(hm.h)[:d]), c.a_array().real, atol=1e-9)
    assert np.allclose(np.diagonal(hm.h, -1)[:d - 1].real, c.b_array().real, atol=1e-9)


def test_lanczos_rejects_non_hermitian():
    rng = np.random.default_rng(9)
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    with pytest.raises(NumericalContractError):
        lanczos(array_map(mat), ArrayVector(random_start(8, 9)), 6)


def test_lanczos_stops_at_breakdown():
    # start vector in a 2d invariant subspace; unnormalized, as the monic
    # recurrence allows
    mat = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    v0 = np.array([3.0, 3.0, 0.0, 0.0], dtype=complex)
    c, basis = lanczos(array_map(mat), ArrayVector(v0), 4)
    assert len(basis) == len(c.a) == 2
    assert np.allclose(c.a, [1.5, 1.5]) and np.allclose(c.b_sq, [0.25])


def test_lanczos_last_diagonal_flag():
    mat = random_hermitian(10, 13)
    v0 = random_start(10, 13)
    c_full, _ = lanczos(array_map(mat), ArrayVector(v0), 5)
    c_skip, _ = lanczos(array_map(mat), ArrayVector(v0), 5, last_diagonal=False)
    assert c_skip.a[-1] == 0.0
    assert np.allclose(c_full.b, c_skip.b)
    assert np.allclose(c_full.a[:-1], c_skip.a[:-1])


def test_lanczos_exact_over_fractions():
    # the monic recurrence takes no square roots: a rational symmetric map
    # and start vector give exact Fraction coefficients, which the float run
    # reproduces; the start vector needs no normalization
    mat = np.array([[Fraction(i + j, 1 + abs(i - j)) for j in range(5)]
                    for i in range(5)], dtype=object)
    v0 = np.array([Fraction(c) for c in (1, 0, 2, -1, 0)], dtype=object)
    exact, basis = lanczos(array_map(mat), ArrayVector(v0), 4)
    assert all(isinstance(x, Fraction) for x in exact.a + exact.b_sq)
    assert all(np.vdot(u.a, v.a) == 0 for i, u in enumerate(basis) for v in basis[:i])
    approx, _ = lanczos(array_map(mat.astype(float)), ArrayVector(3.0 * v0.astype(float)), 4)
    assert np.allclose([float(x) for x in approx.a], [float(x) for x in exact.a],
                       rtol=1e-12)
    assert np.allclose([float(x) for x in approx.b_sq],
                       [float(x) for x in exact.b_sq], rtol=1e-12)


def test_tridiagonal_coeffs_shape_contract():
    with pytest.raises(NumericalContractError):
        TridiagonalCoeffs(a=[0.0], b_sq=[1.0, 4.0])
    # b is derived from b_sq: a real float root, a complex one only where needed
    c = TridiagonalCoeffs(a=[0.0, 0.0, 0.0], b_sq=[4.0, -1.0])
    assert c.b == [2.0, 1j] and isinstance(c.b[0], float)


def test_hessenberg_error_zero_on_tridiagonal():
    h = np.zeros((5, 5), dtype=complex)
    for i in range(4):
        h[i + 1, i] = h[i, i + 1] = i + 1.0
    eps = hessenberg_error(HessenbergMatrix(h=h, basis_dim=5))
    assert np.allclose(eps, 0.0)


def test_hessenberg_error_picks_up_asymmetry_and_spray():
    h = np.zeros((4, 4), dtype=complex)
    h[1, 0], h[0, 1] = 1.0, 1.5      # asymmetric pair at n = 1
    h[0, 3] = 0.3                     # far off-diagonal entry at n = 3
    h[2, 3], h[3, 2] = 2.0, 2.0
    eps = hessenberg_error(HessenbergMatrix(h=h, basis_dim=4))
    assert eps[0] == pytest.approx(0.5)
    assert eps[1] == pytest.approx(0.0)
    assert eps[2] == pytest.approx(0.3)


def test_diagonal_slope_fit_recovers_linear_law():
    h = np.zeros((8, 8), dtype=complex)
    mu = 0.05
    for n in range(8):
        h[n, n] = 1j * mu * (2 * n + 1)
    hm = HessenbergMatrix(h=h, basis_dim=8)
    slope, r2 = diagonal_slope_fit(hm, 6)
    assert slope == pytest.approx(2 * mu)
    assert r2 == pytest.approx(1.0)


def test_diagonal_slope_fit_window_too_small():
    hm = HessenbergMatrix(h=np.zeros((3, 3), dtype=complex), basis_dim=3)
    with pytest.raises(FitError):
        diagonal_slope_fit(hm, 1)


@given(st.integers(min_value=0, max_value=10000))
@settings(max_examples=20, deadline=None)
def test_lanczos_reproduces_eigenvalue_extremes(seed):
    # 3-step Lanczos Ritz values bracket within the true spectrum
    mat = random_hermitian(9, seed)
    c, _ = lanczos(array_map(mat), ArrayVector(random_start(9, seed)), 3)
    tri = np.diag([x.real for x in map(complex, c.a)]).astype(float)
    for i, bv in enumerate(c.b):
        tri[i, i + 1] = tri[i + 1, i] = bv
    ritz = np.linalg.eigvalsh(tri)
    true = np.linalg.eigvalsh(mat)
    assert ritz.min() >= true.min() - 1e-9
    assert ritz.max() <= true.max() + 1e-9
