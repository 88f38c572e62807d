"""Large-N diagram engine: exact combinatorics, adjointness, Lanczos."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsyk.errors import ValidationError
from dsyk.krylov import lanczos
from dsyk.largen import (
    DiagramSpace,
    _scatter,
    hamiltonian_apply,
    l_minus_apply,
    l_plus_apply,
    lanczos_large_n,
    make_dissipative_apply,
    size_distribution,
)
from dsyk.trees import ROOT
from oracles import diagram_state, generation_of, linear_extensions, nested_tree


def test_space_validation():
    with pytest.raises(ValidationError):
        DiagramSpace(q=5)
    with pytest.raises(ValidationError):
        DiagramSpace(q=2)


def test_vacuum_and_root_norms():
    sp = DiagramSpace(q=4, exact=True)
    assert sp.vacuum_state().norm_sq() == 1
    # single arc: w * (q-1 slots yet unfilled contribute nothing) = 2 J^2/q
    assert sp.root_state().norm_sq() == Fraction(1, 4)
    sp_lq = DiagramSpace(q=None)
    assert sp_lq.root_state().norm_sq() == 1  # arc weight 2 J_script^2 = 1


def test_l_plus_coefficients_are_building_order_counts():
    sp = DiagramSpace(q=None)
    state = sp.root_state()
    for _ in range(5):
        state = l_plus_apply(state)
    for i, coeff in state.terms.items():
        enc = nested_tree(sp.trees, i)
        assert coeff == linear_extensions(enc)


@pytest.mark.parametrize("n", range(1, 8))
def test_central_contraction_identity_small(n):
    # L_- L_+^(n+1) on the single arc = n(n+1)/2 * L_+^n, exact integers
    sp = DiagramSpace(q=None)
    state = sp.vacuum_state()
    for _ in range(n):
        state = l_plus_apply(state)   # now L_+^n psi_1
    lhs = l_minus_apply(l_plus_apply(state))
    rhs = Fraction(n * (n + 1), 2) * state
    assert (lhs - rhs).terms == {}


@st.composite
def random_states(draw, exact, n_steps=4):
    sp = DiagramSpace(q=4, exact=exact)
    terms = {}
    pool = sp.trees.ids(1 + n_steps)[:6]
    for i in pool:
        c = draw(st.integers(min_value=-3, max_value=3))
        if c:
            terms[i] = Fraction(c)
    return sp, diagram_state(sp, terms)


def same_number(space, got, expect, size):
    """got == expect exactly in an exact space; in a float one to 1e-12
    relative, or 1e-12 of size, the magnitude of the terms expect sums."""
    if space.exact:
        return got == expect
    return got == pytest.approx(expect, rel=1e-12, abs=1e-12 * size)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_l_minus_is_adjoint_of_l_plus(exact, data):
    sp, state = data.draw(random_states(exact))
    # one generation below the state's, so that L_+ lands on it
    other_terms = {i: Fraction(data.draw(st.integers(min_value=-3, max_value=3)))
                   for i in sp.trees.ids(4)[:3]}
    grown = l_plus_apply(diagram_state(sp, other_terms))
    lhs = grown.inner(state * Fraction(1))
    # <L_+ x, y> = <x, L_- y>, exactly in rational arithmetic
    rhs = diagram_state(sp, other_terms).inner(l_minus_apply(state))
    assert same_number(sp, lhs, rhs, grown.norm() * state.norm())


fractions = st.builds(Fraction, st.integers(min_value=-40, max_value=40),
                      st.integers(min_value=1, max_value=12))


def exact_terms(space, n_arcs=5):
    """Random {tree id: Fraction} over the trees with at most n_arcs arcs."""
    return st.dictionaries(st.integers(0, space.trees.ids(n_arcs).stop - 1), fractions,
                           max_size=8)


def nonzero(terms):
    return {i: c for i, c in terms.items() if c}


def dict_axpy(x, c, y):
    out = dict(x)
    for i, v in y.items():
        out[i] = out.get(i, 0) + c * v
    return nonzero(out)


def dict_inner(space, x, y):
    """sum x_T G(T) y_T with G(T) = w^n slot(T)/|Aut T| taken one tree at a time."""
    t = space.trees
    return sum(x[i] * Fraction(space.arc_weight) ** generation_of(t, i)
               * Fraction(int(t.slot[i]), int(t.aut[i])) * y[i] for i in x if i in y)


def assert_integer_arrays(state):
    assert all(type(c) is int for v in state.gens.values() for c in v.tolist())


def same_terms(space, got, expect, size):
    if space.exact:
        return got == expect
    return all(same_number(space, got.get(i, 0), expect.get(i, 0), size)
               for i in got.keys() | expect.keys())


def magnitudes(terms):
    return {i: abs(c) for i, c in terms.items()}


@pytest.mark.parametrize("q, exact", [(4, True), (None, True), (4, False)],
                         ids=["4", "None", "4-float"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exact_state_arithmetic_matches_fraction_dicts(q, exact, data):
    # float spaces run the same arithmetic and must agree to rounding
    sp = DiagramSpace(q=q, exact=exact)
    xt, yt = data.draw(exact_terms(sp)), data.draw(exact_terms(sp))
    c = data.draw(fractions)
    x, y = diagram_state(sp, xt), diagram_state(sp, yt)
    z = diagram_state(sp, xt)
    z.iaxpy(c, y)
    results = {
        "x": (x, nonzero(xt)),
        "x + y": (x + y, dict_axpy(xt, 1, yt)),
        "x - y": (x - y, dict_axpy(xt, -1, yt)),
        "c * x": (c * x, dict_axpy({}, c, xt)),
        "x * c": (x * c, dict_axpy({}, c, xt)),
        "x += c y": (z, dict_axpy(xt, c, yt)),
        "L+ x": (l_plus_apply(diagram_state(sp, {i: v for i, v in xt.items()
                                                 if generation_of(sp.trees, i) == 3})),
                 None),
        "L- x": (l_minus_apply(x), None),
    }
    # what the float results may round off against: sums of magnitudes
    xm, ym = magnitudes(xt), magnitudes(yt)
    zm, sm = dict_axpy(xm, abs(c), ym), dict_axpy(xm, 1, ym)
    size = max([*zm.values(), *sm.values()], default=0)
    for name, (state, expect) in results.items():
        if exact:
            assert_integer_arrays(state)
        if expect is not None:
            assert same_terms(sp, state.terms, expect, size), name
    assert same_number(sp, x.inner(y), dict_inner(sp, xt, yt), dict_inner(sp, xm, ym))
    assert same_number(sp, z.inner(x + y),
                       dict_inner(sp, dict_axpy(xt, c, yt), dict_axpy(xt, 1, yt)),
                       dict_inner(sp, zm, sm))
    # no operation wrote into x's arrays
    assert same_terms(sp, x.terms, nonzero(xt), size)


def test_exact_states_take_rational_scalars_only():
    sp = DiagramSpace(q=4, exact=True)
    with pytest.raises(ValidationError):
        sp.root_state() * 0.5
    with pytest.raises(ValidationError):
        make_dissipative_apply(sp, 0.1)


def test_large_q_requires_homogeneous_generations():
    sp = DiagramSpace(q=None)
    mixed = sp.vacuum_state() + sp.root_state()
    with pytest.raises(ValidationError):
        l_plus_apply(mixed)


def test_large_q_lanczos_exact_squares():
    coeffs, _ = lanczos_large_n(None, 8)
    assert coeffs.b_sq == [Fraction(0)] + [Fraction(n * (n - 1), 2)
                                           for n in range(2, 9)]
    assert all(x == 0 for x in coeffs.a)


def test_large_q_basis_keeps_one_generation_array():
    # u_n lies in generation n alone; the generations that cancel to zero
    # in u_(k+1) = L u_k - b_k^2 u_(k-1) are dropped, not kept as zero arrays
    _, basis = lanczos_large_n(None, 13)
    assert [list(u.gens) for u in basis] == [[n] for n in range(14)]


def exact_chain(q, n_max):
    """Monic exact-rational Lanczos from the bare fermion at finite q."""
    sp = DiagramSpace(q=q, exact=True)
    return lanczos(hamiltonian_apply, sp.vacuum_state(), n_max, last_diagonal=False)


def test_finite_q_first_coefficients_exact():
    # b_1^2 = 2 J^2/q and b_2^2 = 3/4 follow from direct Wick counts of
    # ||[H, psi_1]||^2 and the one-arc growth weight (q-1) * 2 J^2/q at
    # q = 4, J = 1; the driver asserts exact orthogonality at every step
    coeffs, _ = exact_chain(4, 4)
    assert coeffs.b_sq == [Fraction(1, 4), Fraction(3, 4), Fraction(7, 4),
                           Fraction(87, 28)]
    assert all(x == 0 for x in coeffs.a)


def test_float_lanczos_agrees_with_exact_squares():
    exact, _ = exact_chain(4, 12)
    coeffs, _ = lanczos_large_n(4, 12)
    assert len(coeffs.b_sq) == len(exact.b_sq) == 12
    for bv, ref in zip(coeffs.b_sq, exact.b_sq):
        assert bv == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("q", [4, 6, 8])
def test_concentration_breaks_down_at_five(q):
    _, basis = exact_chain(q, 5)
    gens = [sorted(u.gens) for u in basis[1:]]
    assert gens[:4] == [[1], [2], [3], [4]]   # exact concentration
    assert gens[4] == [3, 5]                  # first contamination


def test_size_distribution_normalization_contract():
    sp = DiagramSpace(q=4)
    raw = sp.root_state()  # norm 1/2, not normalized
    probs, mean, std = size_distribution(raw, 4)
    assert probs == {3: 1.0}
    assert mean == 3.0 and std == 0.0


def test_size_distribution_needs_q_label_for_large_q():
    # the arc count is all a large-q state holds; q only labels the sizes
    sp = DiagramSpace(q=None)
    with pytest.raises(TypeError):
        size_distribution(sp.root_state())
    probs, _, _ = size_distribution(sp.root_state(), q=4)
    assert probs == {3: 1.0}
    probs, _, _ = size_distribution(sp.root_state(), q=6)
    assert probs == {5: 1.0}


def test_dissipative_apply_adds_diagonal():
    sp = DiagramSpace(q=4)
    mu = 0.3
    apply = make_dissipative_apply(sp, mu)
    state = sp.root_state()
    diff = apply(state) - hamiltonian_apply(state)
    # pure diagonal residue i mu s with s = (q-2)*1 + 1 = 3
    assert set(diff.terms) == {ROOT}
    assert diff.terms[ROOT] == pytest.approx(1j * mu * 3)


def test_dissipative_apply_needs_finite_q():
    with pytest.raises(ValidationError):
        make_dissipative_apply(DiagramSpace(q=None), 0.1)


def test_q4_tree_count_to_fifteen_arcs():
    # generations 0..15 at q = 4: the bare fermion plus 80,919 trees
    _, basis = lanczos_large_n(4, 15)
    assert len(basis[-1].space.trees) == 80_920


def test_lanczos_large_n_hermitian_path():
    # the generic float builder must see a Hermitian map and zero diagonal
    coeffs, basis = lanczos_large_n(4, 6)
    assert all(x == 0.0 for x in coeffs.a)
    assert len(basis) == 7
    # Krylov basis orthonormality under the G inner product
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            ip = complex(u.inner(v))
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


def test_float_lanczos_survives_tiny_norms_at_large_q():
    # J = 1 gives J_script^2 = q / 2^(q-1), so at q = 64 the monic norms h_n
    # fall below 1e-176 by n = 11; the float chain must still match the
    # exact one
    coeffs, _ = lanczos_large_n(64, 13)
    ref, _ = lanczos(hamiltonian_apply, DiagramSpace(q=64, exact=True).vacuum_state(), 13,
                     last_diagonal=False)
    assert len(coeffs.b_sq) == len(ref.b_sq) == 13
    for bv, rv in zip(coeffs.b_sq, ref.b_sq):
        assert bv == pytest.approx(float(rv), rel=1e-12)


@pytest.mark.parametrize("dtype, size", [(float, 1000), (float, 2 ** 18 + 1),
                                         (complex, 1000), (object, 1000)])
def test_scatter_adds_as_add_at(dtype, size):
    # bincount (floats, a step of one slice of 2^18 edges) and np.add.at
    # slice by slice both add in edge order from zero: over magnitudes from
    # 1e-8 to 1e8 another order would show in the last bits
    rng = np.random.default_rng(size)
    index = rng.integers(0, 50, size).astype(np.int32)
    gather = rng.integers(0, 70, size).astype(np.int32)
    factor = rng.integers(1, 4, size).astype(np.uint8)
    x = rng.normal(size=70) * 10.0 ** rng.integers(-8, 9, 70)
    if dtype is complex:
        x = x + 1j * x[::-1]
    elif dtype is object:   # Python ints past int64
        x = np.array([int(v * 2 ** 40) * 2 ** 30 for v in x], dtype=object)
    expected = np.zeros(60, dtype=x.dtype)
    np.add.at(expected, index, factor * x[gather])
    got = _scatter(index, gather, x, factor, 60)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
