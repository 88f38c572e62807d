"""Dissipator closed form vs the literal jump-operator sum and a dense oracle.

dsyk's dissipator acts on odd operators i^k A; even strings and mixed
operators go through the general parity sectors of oracles.py.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsyk.errors import ValidationError
from dsyk.lindblad import dissipator_apply, lindbladian_apply
from dsyk.majorana import OperatorVector, liouvillian_apply, sample_syk
from oracles import (
    ParityError,
    StringOperator,
    dense_dissipator,
    dense_dissipator_apply,
    dense_dissipator_bosonic,
    dense_gammas,
    dense_matrix,
    dense_operator,
    dissipator_oracle,
    distance,
    operator_from_terms,
    random_sector_operator,
    sector_dissipator_apply,
    sector_lindbladian_apply,
    string_backend,
    string_hamiltonian,
)

N_DENSE = 6
GAMMAS = dense_gammas(N_DENSE)
MU = 0.3


def test_mu_validation():
    o = OperatorVector.basis_string(N_DENSE, 0b1)
    with pytest.raises(ValidationError):
        dissipator_apply(-0.1, o)
    with pytest.raises(ValidationError):
        lindbladian_apply(sample_syk(N_DENSE, 4, 1.0, 1), -0.1, o)


@given(st.integers(min_value=1, max_value=(1 << N_DENSE) - 1))
@settings(max_examples=100, deadline=None)
def test_dissipator_scales_strings_by_imus(mask):
    s = bin(mask).count("1")
    vec, diss = string_backend(mask)
    res = diss(MU, vec.basis_string(N_DENSE, mask))
    expected = vec.basis_string(N_DENSE, mask, 1j * MU * s)
    assert np.array_equal(dense_matrix(res), dense_matrix(expected))


@given(st.integers(min_value=0, max_value=(1 << N_DENSE) - 1))
@settings(max_examples=100, deadline=None)
def test_oracle_matches_closed_form_per_string(mask):
    vec, diss = string_backend(mask)
    fast = diss(MU, vec.basis_string(N_DENSE, mask))
    oracle = dissipator_oracle(MU, StringOperator.basis_string(N_DENSE, mask))
    assert distance(fast, operator_from_terms(N_DENSE, oracle.terms)) < 1e-12


@given(st.integers(min_value=0, max_value=(1 << N_DENSE) - 1))
@settings(max_examples=60, deadline=None)
def test_oracle_matches_dense_lindblad_dissipator(mask):
    o = StringOperator.basis_string(N_DENSE, mask)
    od = dense_operator(GAMMAS, {mask: 1.0})
    fermionic = bin(mask).count("1") % 2 == 1
    dense = (dense_dissipator if fermionic else dense_dissipator_bosonic)(
        GAMMAS, MU, od)
    res = dense_operator(GAMMAS, dissipator_oracle(MU, o).terms)
    assert np.allclose(res, dense, atol=1e-12)


def test_mixed_parity_rejected_by_oracle():
    terms = {0b1: 1.0, 0b11: 1.0}
    with pytest.raises(ParityError):
        dissipator_oracle(MU, StringOperator.from_terms(N_DENSE, terms))
    # the sectors' closed form is parity-blind and still fine
    res = sector_dissipator_apply(MU, operator_from_terms(N_DENSE, terms))
    expected = operator_from_terms(N_DENSE, {0b1: 1j * MU, 0b11: 2j * MU})
    assert distance(res, expected) < 1e-14


def test_lindbladian_is_commutator_plus_dissipator():
    h, mu = sample_syk(N_DENSE, 4, 1.0, 1), 0.1
    rng = np.random.default_rng(2)
    terms = {int(msk): complex(*rng.normal(size=2))
             for msk in rng.integers(0, 1 << N_DENSE, size=6)}
    o = operator_from_terms(N_DENSE, terms)
    full = sector_lindbladian_apply(h, mu, o)
    hd = dense_operator(GAMMAS, string_hamiltonian(h).terms)
    od = dense_operator(GAMMAS, terms)
    commutator = hd @ od - od @ hd
    # the dissipator of each parity part follows its own sign branch
    even = dense_operator(GAMMAS, {k: v for k, v in terms.items()
                                   if bin(k).count("1") % 2 == 0})
    odd = od - even
    diss = (dense_dissipator_bosonic(GAMMAS, mu, even)
            + dense_dissipator(GAMMAS, mu, odd))
    assert np.allclose(dense_matrix(full), commutator + diss, atol=1e-11)


def test_mu_zero_reduces_to_commutator():
    h = sample_syk(N_DENSE, 4, 1.0, 1)
    o = OperatorVector.basis_string(N_DENSE, 0b10101)
    assert distance(lindbladian_apply(h, 0.0, o), liouvillian_apply(h, o)) == 0.0


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("sectors", [{1}, {0}, {0, 1}], ids=["odd", "even", "mixed"])
def test_dissipator_matches_dense_oracle(n, sectors):
    o = random_sector_operator(n, sectors, np.random.default_rng(n))
    res = sector_dissipator_apply(MU, o)
    assert res.sectors.keys() == o.sectors.keys()
    expected = dense_dissipator_apply(MU, n, dense_matrix(o))
    assert np.max(np.abs(dense_matrix(res) - expected)) <= 1e-14 * np.max(np.abs(expected))


def _peak(f):
    """Peak bytes tracemalloc sees while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lindbladian_apply_peaks_below_three_and_a_half_sectors():
    # the commutator and the dissipator each allocate their result and one
    # buffer of at most half a sector, and their sum is the third sector;
    # numpy's ufunc buffers add the rest.  Measured at N = 12 on numpy 2.4:
    # 1.53, 2.15 and 3.23 sectors.  Only upper bounds: a smaller peak is no
    # defect
    n = 12
    h = sample_syk(n, 4, 1.0, 1)
    o = lindbladian_apply(h, MU, OperatorVector.basis_string(n, 1))   # odd, H built
    sector = 16 * 2 ** (n - 1)
    assert _peak(lambda: liouvillian_apply(h, o)) < 1.75 * sector
    assert _peak(lambda: dissipator_apply(MU, o)) < 2.25 * sector
    assert _peak(lambda: lindbladian_apply(h, MU, o)) < 3.5 * sector
