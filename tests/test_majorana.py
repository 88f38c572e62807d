"""Jordan-Wigner block operators against dense and string-basis oracles.

The string algebra in oracles.py is itself checked against the dense
Kronecker-product gammas first, then serves as the reference for the
block backends, as does the dense D x D backend of oracles.py.  The
general parity-sector backend of oracles.py (SectorOperator), checked
against the dense matrices, is in turn the reference for dsyk's odd
i^k A blocks, and holds the tests of even and mixed operators.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsyk.errors import NumericalContractError, ValidationError
from dsyk.cli import arnoldi
from dsyk.lindblad import dissipator_apply, lindbladian_apply
from dsyk.majorana import OperatorVector, liouvillian_apply, sample_syk
from oracles import (
    ArrayVector,
    SectorOperator,
    StringOperator,
    commute_phase,
    dagger,
    dense_gammas,
    dense_inner,
    dense_lindbladian_map,
    dense_liouvillian_apply,
    dense_matrix,
    dense_operator,
    dense_string,
    hamiltonian_operator,
    j_script_sq,
    normalized,
    operator_from_dense,
    operator_from_terms,
    popcount_array,
    random_odd_operator,
    random_sector_operator,
    sector_dissipator_apply,
    sector_lindbladian_apply,
    sector_liouvillian_apply,
    sectors_of,
    string_dagger_phase,
    string_hamiltonian,
    string_lindbladian_apply,
    string_liouvillian_apply,
    string_multiply,
    string_terms,
    zero_operator,
)

N_DENSE = 6
GAMMAS = dense_gammas(N_DENSE)

masks6 = st.integers(min_value=0, max_value=(1 << N_DENSE) - 1)
masks16 = st.integers(min_value=0, max_value=(1 << 16) - 1)


# -- the string oracle against dense matrices ---------------------------


@given(masks6, masks6)
@settings(max_examples=200, deadline=None)
def test_string_multiply_against_dense(a, b):
    phase, m = string_multiply(a, b)
    dense = dense_string(GAMMAS, a) @ dense_string(GAMMAS, b)
    expected = phase * dense_string(GAMMAS, m)
    assert np.allclose(dense, expected, atol=1e-12)


@given(masks16, masks16, masks16)
@settings(max_examples=500, deadline=None)
def test_string_multiply_associative(a, b, c):
    p1, ab = string_multiply(a, b)
    p2, ab_c = string_multiply(ab, c)
    q1, bc = string_multiply(b, c)
    q2, a_bc = string_multiply(a, bc)
    assert ab_c == a_bc
    assert p1 * p2 == q1 * q2


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
@settings(max_examples=100, deadline=None)
def test_single_gamma_anticommutation(i, j):
    a, b = 1 << i, 1 << j
    pij, mij = string_multiply(a, b)
    pji, mji = string_multiply(b, a)
    assert mij == mji
    if i == j:
        assert mij == 0 and pij == pji == 1  # gamma^2 = identity
    else:
        assert pij == -pji


@given(masks16, masks16)
@settings(max_examples=300, deadline=None)
def test_commutation_parity_rule(a, b):
    # even strings: [gamma_A, gamma_B] = 0 iff overlap popcount is even
    if bin(a).count("1") % 2 == 0:
        p_ab, _ = string_multiply(a, b)
        p_ba, _ = string_multiply(b, a)
        overlap_odd = bin(a & b).count("1") % 2 == 1
        assert (p_ab == -p_ba) == overlap_odd
        assert (commute_phase(a, b) is None) == (not overlap_odd)


@given(masks6)
@settings(max_examples=100, deadline=None)
def test_dagger_phase_against_dense(m):
    dense = dense_string(GAMMAS, m)
    assert np.allclose(dense.conj().T, string_dagger_phase(m) * dense_string(GAMMAS, m),
                       atol=1e-12)


def test_popcount_array():
    masks = np.array([0, 1, 0b1011, (1 << 63) - 1], dtype=np.int64)
    assert popcount_array(masks).tolist() == [0, 1, 3, 63]


def test_parity_split():
    o = StringOperator.from_terms(4, {0b1: 1.0, 0b11: 2.0, 0b111: 3.0})
    even, odd = o.parity_split()
    assert set(even.terms) == {0b11}
    assert set(odd.terms) == {0b1, 0b111}


# -- the matrix backend -------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_strings_are_the_dense_jordan_wigner_strings(n):
    gammas = dense_gammas(n)
    for mask in range(1 << n):
        assert np.array_equal(dense_matrix(SectorOperator.basis_string(n, mask)),
                              dense_string(gammas, mask))


@st.composite
def terms(draw, n=N_DENSE, max_terms=5):
    k = draw(st.integers(min_value=1, max_value=max_terms))
    out = {}
    for _ in range(k):
        m = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        re = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        im = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        out[m] = out.get(m, 0) + complex(re, im)
    return out


@given(terms(), terms())
@settings(max_examples=100, deadline=None)
def test_inner_product_is_normalized_trace(a, b):
    va, vb = operator_from_terms(N_DENSE, a), operator_from_terms(N_DENSE, b)
    assert abs(va.inner(vb) - dense_inner(dense_operator(GAMMAS, a),
                                          dense_operator(GAMMAS, b))) < 1e-10
    assert abs(va.inner(vb) - StringOperator.from_terms(N_DENSE, a).inner(
        StringOperator.from_terms(N_DENSE, b))) < 1e-10


@given(terms(), terms())
@settings(max_examples=60, deadline=None)
def test_addition_matches_dense(a, b):
    s = operator_from_terms(N_DENSE, a) + operator_from_terms(N_DENSE, b)
    assert np.allclose(dense_matrix(s), dense_operator(GAMMAS, a) + dense_operator(GAMMAS, b),
                       atol=1e-12)


@given(terms())
@settings(max_examples=60, deadline=None)
def test_dagger_matches_dense(a):
    assert np.allclose(dense_matrix(dagger(operator_from_terms(N_DENSE, a))),
                       dense_operator(GAMMAS, a).conj().T, atol=1e-12)
    assert np.allclose(dense_operator(GAMMAS, StringOperator.from_terms(N_DENSE, a)
                                      .dagger().terms),
                       dense_operator(GAMMAS, a).conj().T, atol=1e-12)


def test_norm_and_normalized():
    o = operator_from_terms(4, {0b0011: 3.0, 0b0110: 4.0})
    assert o.inner(o) == pytest.approx(25.0)
    assert normalized(o).inner(normalized(o)) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        normalized(zero_operator(4))


def test_incompatible_sizes_raise():
    with pytest.raises(ValidationError):
        zero_operator(4).inner(zero_operator(6))


def test_iaxpy_is_u_plus_c_v_in_place():
    u = operator_from_terms(6, {0b000011: 0.3 - 1.1j, 0b001111: 2.0})
    v = operator_from_terms(6, {0b000011: -0.7, 0b110000: 0.4 + 0.9j})
    c = -0.37 + 1.91j
    want = (u + c * v).sectors
    v_before = v.sectors[0].copy()
    blocks = u.sectors[0]
    u.iaxpy(c, v)
    assert u.sectors.keys() == want.keys() == {0}
    assert u.sectors[0] is blocks
    np.testing.assert_array_equal(u.sectors[0], want[0], strict=True)
    np.testing.assert_array_equal(v.sectors[0], v_before, strict=True)
    with pytest.raises(ValidationError):
        u.iaxpy(c, zero_operator(4))


def test_basis_string_range_check():
    with pytest.raises(ValidationError):
        OperatorVector.basis_string(4, 1 << 5)
    with pytest.raises(ValidationError):
        zero_operator(5)


def test_syk_sampling_is_deterministic_and_scaled():
    h1 = sample_syk(10, 4, 1.0, seed=7)
    h2 = sample_syk(10, 4, 1.0, seed=7)
    assert h1.couplings == h2.couplings
    assert np.array_equal(h1.blocks, h2.blocks)
    assert len(h1.couplings) == 210  # C(10, 4)
    # couplings variance ~ (q-1)! J^2 / N^(q-1); loose 3-sigma band
    vals = np.array(list(h1.couplings.values()))
    sigma2 = 6.0 / 10 ** 3
    assert 0.5 * sigma2 < vals.var() < 2.0 * sigma2


def test_syk_validation():
    with pytest.raises(ValidationError):
        sample_syk(9, 4, 1.0, 0)
    with pytest.raises(ValidationError):
        sample_syk(8, 3, 1.0, 0)
    with pytest.raises(ValidationError):
        sample_syk(4, 6, 1.0, 0)


def test_hamiltonian_is_hermitian_dense():
    for q in (2, 4, 6):
        h = sample_syk(N_DENSE, q, 1.0, seed=3)
        dense = dense_operator(GAMMAS, string_hamiltonian(h).terms)
        hd = dense_matrix(hamiltonian_operator(h))
        assert np.allclose(hd, dense, atol=1e-12)
        assert np.allclose(hd, hd.conj().T, atol=1e-12)


def test_j_script_sq():
    assert j_script_sq(sample_syk(8, 4, 1.0, 0)) == pytest.approx(0.5)
    assert j_script_sq(sample_syk(8, 6, 1.0, 0)) == pytest.approx(6 / 32)


@pytest.mark.parametrize("seed", [1, 2])
def test_liouvillian_against_dense_commutator(seed):
    h = sample_syk(N_DENSE, 4, 1.0, seed=seed)
    hd = dense_operator(GAMMAS, string_hamiltonian(h).terms)
    t = {0b1: 1.0, 0b111: 0.5 - 0.25j, 0b10101: -1.0}
    od = dense_operator(GAMMAS, t)
    expected = hd @ od - od @ hd
    res = sector_liouvillian_apply(h, operator_from_terms(N_DENSE, t))
    assert np.allclose(dense_matrix(res), expected, atol=1e-12)
    oracle = string_liouvillian_apply(h, StringOperator.from_terms(N_DENSE, t))
    assert np.allclose(dense_operator(GAMMAS, oracle.terms), expected, atol=1e-12)


def test_liouvillian_hermitian_wrt_inner():
    h = sample_syk(N_DENSE, 4, 1.0, seed=5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = (operator_from_terms(
            N_DENSE, {int(m): complex(*rng.normal(size=2))
                      for m in rng.integers(0, 1 << N_DENSE, size=4)}) for _ in range(2))
        lhs = a.inner(sector_liouvillian_apply(h, b))
        rhs = sector_liouvillian_apply(h, a).inner(b)
        assert abs(lhs - rhs) < 1e-11


def test_first_commutator_support_size():
    # [H, gamma_1] at q = 4 is supported on size-3 strings only, and the
    # sector blocks of an operator of one parity have 2^(N-1) entries
    n = 10
    h = sample_syk(n, 4, 1.0, seed=1)
    res = liouvillian_apply(h, OperatorVector.basis_string(n, 1))
    support = string_terms(dense_gammas(n), dense_matrix(res))
    assert {m.bit_count() for m in support} == {3}
    assert all(not (m & 1) for m in support)  # gamma_1 itself consumed
    assert 0 < res.n_terms <= 2 ** (n - 1)


@pytest.mark.parametrize("n, mu", [(8, 0.0), (10, 0.05)])
def test_arnoldi_matches_string_backend(n, mu):
    # the Hessenberg matrix is basis-independent: the matrix and string
    # backends must agree to rounding on the same Lindbladian
    h = sample_syk(n, 4, 1.0, seed=4)
    hm, _ = arnoldi(lambda v: lindbladian_apply(h, mu, v),
                    OperatorVector.basis_string(n, 1), 8)
    ref, _ = arnoldi(lambda v: string_lindbladian_apply(h, mu, v),
                     StringOperator.basis_string(n, 1), 8)
    assert hm.basis_dim == ref.basis_dim
    assert np.max(np.abs(hm.h - ref.h)) < 1e-12


# -- the oracle's parity sectors against the dense D x D backend ---------

SECTORS = pytest.mark.parametrize("sectors", [{1}, {0}, {0, 1}], ids=["odd", "even", "mixed"])


@pytest.mark.parametrize("n", [8, 10])
@SECTORS
def test_liouvillian_matches_dense_oracle(n, sectors):
    h = sample_syk(n, 4, 1.0, seed=n)
    o = random_sector_operator(n, sectors, np.random.default_rng(n))
    res = sector_liouvillian_apply(h, o)
    assert res.sectors.keys() == o.sectors.keys()
    hd = dense_operator(dense_gammas(n), string_hamiltonian(h).terms)
    expected = dense_liouvillian_apply(hd, dense_matrix(o))
    assert np.max(np.abs(dense_matrix(res) - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [8, 14])
@SECTORS
def test_inner_is_the_dense_vdot(n, sectors):
    # the sector sums agree with the D x D vdot to rounding, and operands
    # with no sector in common are orthogonal exactly
    rng = np.random.default_rng(n)
    a, b = (random_sector_operator(n, sectors, rng) for _ in range(2))
    c = random_sector_operator(n, {0, 1} - sectors or {1}, rng)
    disjoint = not sectors & c.sectors.keys()
    for x, y in [(a, b), (b, a), (a, a), (c, a), (a, c), (b, b)]:
        dx, dy = dense_matrix(x), dense_matrix(y)
        want = complex(np.vdot(dx, dy)) / 2 ** (n // 2)
        got = x.inner(y)
        if disjoint and (x is c or y is c):
            assert got == 0
        else:
            scale = np.linalg.norm(dx) * np.linalg.norm(dy) / 2 ** (n // 2)
            assert abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("n", [8, 14])
@SECTORS
def test_inner_is_the_dense_vdot_bit_for_bit(n, sectors):
    # inner is, bit for bit, the vdot of the D x D matrices taken sector by
    # sector: each sector's blocks hold the dense entries of that sector in
    # the order the dense matrix gives them, and a sector one operand lacks
    # adds exactly zero
    rng = np.random.default_rng(n)
    a, b = (random_sector_operator(n, sectors, rng) for _ in range(2))
    c = random_sector_operator(n, {0, 1} - sectors or {1}, rng)
    for x, y in [(a, b), (b, a), (a, a), (c, a), (a, c), (b, b)]:
        dx = operator_from_dense(n, dense_matrix(x)).sectors
        dy = operator_from_dense(n, dense_matrix(y)).sectors
        want = sum((complex(np.vdot(dx[s], dy[s])) for s in (0, 1)), 0j) / 2 ** (n // 2)
        assert x.inner(y) == want


@pytest.mark.parametrize("mu", [0.02, 0.0])
def test_arnoldi_matches_dense_oracle(mu):
    # the i^k A blocks and the D x D matrices, H summed from Kronecker
    # gammas, give one Hessenberg matrix up to rounding
    n = 12
    h = sample_syk(n, 4, 1.0, seed=6)
    hm, _ = arnoldi(lambda v: lindbladian_apply(h, mu, v),
                    OperatorVector.basis_string(n, 1), 12)
    ref, _ = arnoldi(dense_lindbladian_map(h, mu),
                     ArrayVector(dense_string(dense_gammas(n), 1)), 12)
    assert hm.basis_dim == ref.basis_dim == 13
    assert np.max(np.abs(hm.h - ref.h)) <= 1e-12 * np.max(np.abs(ref.h))


# -- the i^k A blocks against the oracle's parity sectors -----------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_odd_strings_are_the_dense_jordan_wigner_strings(n):
    gammas = dense_gammas(n)
    for mask in range(1 << n):
        if bin(mask).count("1") % 2 == 0:
            with pytest.raises(ValidationError):
                OperatorVector.basis_string(n, mask)
            continue
        for amp in (1.0, -0.5j):
            assert np.array_equal(dense_matrix(OperatorVector.basis_string(n, mask, amp)),
                                  amp * dense_string(gammas, mask))
    with pytest.raises(NumericalContractError):
        OperatorVector.basis_string(n, 1, 1.0 + 1.0j)


def _sector_gap(got, want):
    """||got - want|| of an OperatorVector against a SectorOperator, over their blocks."""
    got = sectors_of(got)
    assert got.sectors.keys() == want.sectors.keys() == {1}
    return np.linalg.norm(got.sectors[1] - want.sectors[1])


@pytest.mark.parametrize("n", [8, 10, 14])
@pytest.mark.parametrize("k", range(4))
def test_engine_matches_sector_oracle(n, k):
    # the commutator, the dissipator, their sum and the inner product of
    # i^k A agree with the general sectors to rounding, relative to the
    # norms of the operands
    mu = 0.3
    h = sample_syk(n, 4, 1.0, seed=n)
    rng = np.random.default_rng(10 * n + k)
    o = random_odd_operator(n, k, rng)
    ref = sectors_of(o)
    h_norm, o_norm = np.linalg.norm(h.blocks), np.linalg.norm(ref.sectors[1])
    assert _sector_gap(liouvillian_apply(h, o), sector_liouvillian_apply(h, ref)) \
        <= 1e-13 * h_norm * o_norm
    assert _sector_gap(dissipator_apply(mu, o), sector_dissipator_apply(mu, ref)) \
        <= 1e-13 * mu * n * o_norm
    assert _sector_gap(lindbladian_apply(h, mu, o), sector_lindbladian_apply(h, mu, ref)) \
        <= 1e-13 * (h_norm + mu * n) * o_norm
    for j in range(4):
        v = random_odd_operator(n, j, rng)
        scale = abs(o.inner(o) * v.inner(v)) ** 0.5
        assert abs(o.inner(v) - ref.inner(sectors_of(v))) <= 1e-13 * scale


@pytest.mark.parametrize("mu", [0.02, 0.0])
def test_arnoldi_matches_sector_oracle(mu):
    n = 12
    h = sample_syk(n, 4, 1.0, seed=6)
    hm, _ = arnoldi(lambda v: lindbladian_apply(h, mu, v),
                    OperatorVector.basis_string(n, 1), 12)
    ref, _ = arnoldi(lambda v: sector_lindbladian_apply(h, mu, v),
                     SectorOperator.basis_string(n, 1), 12)
    assert hm.basis_dim == ref.basis_dim == 13
    assert np.max(np.abs(hm.h - ref.h)) <= 1e-12 * np.max(np.abs(ref.h))


def test_liouvillian_hermitian_on_blocks():
    h = sample_syk(10, 4, 1.0, seed=5)
    rng = np.random.default_rng(4)
    for k in range(4):
        a, b = random_odd_operator(10, k, rng), random_odd_operator(10, (k + 1) % 4, rng)
        lhs = a.inner(liouvillian_apply(h, b))
        rhs = liouvillian_apply(h, a).inner(b)
        assert abs(lhs - rhs) < 1e-11 * abs(a.inner(a) * b.inner(b)) ** 0.5 * 10


def test_phases_are_exact():
    # an inner product is i^(k' - k) times a real number, with the other
    # part an exact +0.0, and a product with an imaginary scalar turns the
    # phase without rounding
    rng = np.random.default_rng(1)
    u = random_odd_operator(8, 0, rng)
    for j in range(4):
        z = u.inner(random_odd_operator(8, j, rng))
        part = (z.imag, z.real, z.imag, z.real)[j]
        assert part == 0.0 and np.copysign(1.0, part) == 1.0
    w = u * -2.0j
    assert w.k == 1 and np.array_equal(w.a, -2.0 * u.a)
    assert np.array_equal(dense_matrix(w), -2.0j * dense_matrix(u))


def test_wrong_phase_raises():
    # a coefficient that is not i^m times a real number would drop the
    # anti-Hermitian part of the result: it raises instead
    rng = np.random.default_rng(2)
    u, v = random_odd_operator(8, 0, rng), random_odd_operator(8, 1, rng)
    with pytest.raises(NumericalContractError):
        u + v
    with pytest.raises(NumericalContractError):
        u.iaxpy(1.0, v)
    with pytest.raises(NumericalContractError):
        u.iaxpy(0.5 + 0.5j, random_odd_operator(8, 0, rng))
    with pytest.raises(NumericalContractError):
        u * (1.0 + 1.0j)
    a = u.a.copy()
    u.iaxpy(-2.0j, v)   # -2i * i^1 = 2, real
    assert np.array_equal(u.a, a + 2.0 * v.a)
    w = random_odd_operator(8, 2, rng)   # i^2 = -1
    assert np.array_equal((u + w).a, u.a - w.a)
