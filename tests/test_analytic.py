"""Closed-form chain coefficients, wavefunction, and complexity formulas."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from dsyk.analytic import (
    MeixnerParams,
    k_complexity_exact,
    k_saturation,
    meixner_tridiagonal,
    variance_exact,
    variance_saturation,
)
from dsyk.errors import ValidationError
from oracles import (
    ContinuumParams,
    continuum_prediction,
    g_function,
    k_complexity_partition,
    meixner_tridiagonal_exact,
    meixner_wavefunction,
    tail_decay_rate,
)

us = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)
etas = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
# keep eta * sinh^2 t well inside the summation window used below
ts = st.floats(min_value=0.01, max_value=3.0, allow_nan=False)


def test_params_validation():
    with pytest.raises(ValidationError):
        MeixnerParams(u=-0.1, eta=1.0)
    with pytest.raises(ValidationError):
        MeixnerParams(u=1.0, eta=1.0)
    with pytest.raises(ValidationError):
        MeixnerParams(u=0.5, eta=0.0)


def test_chain_coefficients():
    p = MeixnerParams(u=0.25, eta=0.5)
    c = meixner_tridiagonal(p, 5)
    for n in range(6):
        assert complex(c.a[n]) == pytest.approx(1j * 0.25 * (2 * n + 0.5))
    for n in range(1, 6):
        assert c.b_sq[n - 1] == pytest.approx((1 - 0.25 ** 2) * n * (n - 1 + 0.5))


def test_chain_coefficients_exact_match_float():
    c_f = meixner_tridiagonal(MeixnerParams(u=0.5, eta=1.5), 4)
    c_e = meixner_tridiagonal_exact(sp.Rational(1, 2), sp.Rational(3, 2), 4)
    for x, y in zip(c_f.a, c_e.a):
        assert complex(x) == pytest.approx(complex(y))
    for x, y in zip(c_f.b_sq, c_e.b_sq):
        assert float(x) == pytest.approx(float(y))


def test_g_function_normalization_and_closed_limit():
    assert g_function(0.0) == pytest.approx(0.0, abs=1e-14)
    # mu = 0: g = -2 log cosh t
    t = 1.7
    assert g_function(t) == pytest.approx(-2 * math.log(math.cosh(t)))


def test_g_function_dissipative_value():
    # alpha and the shift reproduce d g/dt(0) = -mu~ exactly
    h = 1e-6
    mu = 0.8
    deriv = (g_function(h, 1.0, mu) - g_function(-h, 1.0, mu)) / (2 * h)
    assert deriv == pytest.approx(-mu, rel=1e-6)


def test_wavefunction_initial_condition():
    p = MeixnerParams(u=0.2, eta=1.0)
    assert meixner_wavefunction(0, 0.0, p) == 1.0
    assert meixner_wavefunction(3, 0.0, p) == 0.0


@given(us, etas, ts)
@settings(max_examples=100, deadline=None)
def test_wavefunction_norm_closed_form(u, eta, t):
    # dissipation shrinks the norm: sum phi_n^2 = (sech^2 t / D)^eta with
    # D = 1 + 2u tanh t - (1-2u^2) tanh^2 t; reduces to 1 at u = 0
    p = MeixnerParams(u=u, eta=eta)
    ns = np.arange(6000)
    phi = meixner_wavefunction(ns, t, p)
    total = float(np.sum(phi ** 2))
    th = math.tanh(t)
    denom = 1.0 + 2.0 * u * th - (1.0 - 2.0 * u ** 2) * th ** 2
    z = ((1.0 - th ** 2) / denom) ** eta
    assert total == pytest.approx(z, rel=1e-9, abs=1e-10)


@given(us, etas, ts)
@settings(max_examples=100, deadline=None)
def test_k_complexity_two_routes_agree(u, eta, t):
    p = MeixnerParams(u=u, eta=eta)
    assert k_complexity_exact(t, p) == pytest.approx(k_complexity_partition(t, p),
                                                     rel=1e-12, abs=1e-12)


@given(us, etas, ts)
@settings(max_examples=60, deadline=None)
def test_k_and_variance_match_wavefunction_sums(u, eta, t):
    p = MeixnerParams(u=u, eta=eta)
    ns = np.arange(6000)
    w = meixner_wavefunction(ns, t, p) ** 2
    z = w.sum()
    k = float((ns * w).sum() / z)
    var = float(((ns - k) ** 2 * w).sum() / z)
    assert k_complexity_exact(t, p) == pytest.approx(k, rel=1e-7, abs=1e-7)
    assert variance_exact(t, p) == pytest.approx(var, rel=1e-6, abs=1e-6)


def test_closed_system_growth():
    # u = 0: K = eta sinh^2 t
    p = MeixnerParams(u=0.0, eta=1.25)
    for t in (0.3, 1.0, 2.5):
        assert k_complexity_exact(t, p) == pytest.approx(
            1.25 * math.sinh(t) ** 2, rel=1e-12)


def test_saturation_values():
    p = MeixnerParams(u=0.05, eta=0.5)
    assert k_saturation(p) == pytest.approx(0.5 / 0.1 - 0.25)
    assert variance_saturation(p) == pytest.approx(0.5 * (1 - 0.05 ** 2) / (4 * 0.05 ** 2))
    assert k_complexity_exact(40.0, p) == pytest.approx(k_saturation(p), rel=1e-9)
    assert variance_exact(40.0, p) == pytest.approx(variance_saturation(p), rel=1e-9)
    free = MeixnerParams(u=0.0, eta=1.0)
    assert k_saturation(free) == math.inf
    assert variance_saturation(free) == math.inf


def test_tail_decay_rate_matches_wavefunction_tail():
    p = MeixnerParams(u=0.2, eta=1.5)
    t = 25.0  # effectively stationary
    ns = np.arange(200, 260)
    phi = meixner_wavefunction(ns, t, p)
    corrected = np.log(phi) - ((p.eta - 1) / 2.0) * np.log(ns)
    slope = np.polyfit(ns, corrected, 1)[0]
    assert -slope == pytest.approx(tail_decay_rate(0.2), rel=1e-2)


def test_continuum_params():
    with pytest.raises(ValidationError):
        ContinuumParams(alpha=0.0, chi_mu=0.1)
    with pytest.raises(ValidationError):
        ContinuumParams(alpha=1.0, chi_mu=-0.1)
    p = ContinuumParams(alpha=1.0, chi_mu=0.02)
    assert p.xi == pytest.approx(100.0)
    assert p.t_star == pytest.approx(math.log(100.0) / 2.0)
    closed = ContinuumParams(alpha=1.0, chi_mu=0.0)
    assert closed.xi == math.inf
    with pytest.raises(ValidationError):
        closed.t_star


def test_continuum_prediction_crossover():
    p = ContinuumParams(alpha=1.0, chi_mu=0.02)
    ts_grid = np.array([0.0, 1.0, p.t_star, 10.0])
    vals = continuum_prediction(p, ts_grid)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(math.e ** 2)
    assert vals[-1] == pytest.approx(p.xi)
