"""Chain ODE integration against matrix-exponential and closed-form oracles."""

import contextlib
import math

import numpy as np
import pytest

from dsyk import dynamics
from dsyk.analytic import MeixnerParams, meixner_tridiagonal
from dsyk.dynamics import evolve_chain, k_complexity_numeric, meixner_n_trunc
from dsyk.errors import (
    FitError,
    NumericalContractError,
    ResourceLimitError,
    TruncationError,
    ValidationError,
)
from dsyk.krylov import TridiagonalCoeffs
from oracles import (
    chain_evolution_expm,
    direct_k_and_variance,
    meixner_wavefunction,
    stationary_tail_fit,
)


def toy_chain(n=40, u=0.1, eta=1.0):
    return meixner_tridiagonal(MeixnerParams(u=u, eta=eta), n)


def solve_chain(c, grid, rtol):
    """dynamics.solve_ivp on c's whole chain from phi_n(0) = delta_(n,0),
    without evolve_chain's check of the boundary spill."""
    y0 = np.eye(1, len(c.a))[0]
    return dynamics.solve_ivp((np.real(1j * c.a_array()), np.real(c.b_array())),
                              (0.0, grid[-1]), y0, t_eval=grid, rtol=rtol)


def test_grid_validation():
    c = toy_chain()
    with pytest.raises(ValidationError):
        evolve_chain(c, [1.0, 2.0])
    with pytest.raises(ValidationError):
        evolve_chain(c, [0.0, 0.5, 0.5])
    with pytest.raises(ValidationError):
        evolve_chain(c, [])


def test_complex_b_rejected():
    c = TridiagonalCoeffs(a=[0.0, 0.0], b_sq=[-1.0])
    with pytest.raises(ValidationError):
        evolve_chain(c, [0.0, 0.1])


def test_complex_ia_rejected():
    # a_n with a real part make i a_n complex: not a real chain
    c = TridiagonalCoeffs(a=[0.5, 0.0, 0.0], b_sq=[1.0, 1.0])
    with pytest.raises(ValidationError):
        evolve_chain(c, [0.0, 0.1])


def test_two_site_chain_rejected():
    with pytest.raises(ValidationError):
        evolve_chain(toy_chain(1), [0.0, 0.1])


# the 3-stage Radau IIA in closed form (Hairer and Wanner, Solving ODEs II,
# IV.5 and IV.8): the Butcher matrix A and the weights E of the error estimate
_S6 = 6 ** 0.5
RADAU3_A = np.array([[(88 - 7 * _S6) / 360, (296 - 169 * _S6) / 1800, (-2 + 3 * _S6) / 225],
                     [(296 + 169 * _S6) / 1800, (88 + 7 * _S6) / 360, (-2 - 3 * _S6) / 225],
                     [(16 - _S6) / 36, (16 + _S6) / 36, 1 / 9]])
RADAU3_E = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1]) / 3


def test_three_stage_tableau_is_the_closed_form():
    # E is a difference of entries near 10: 1e-15 of the largest
    a, e = dynamics._radau_iia(3)
    np.testing.assert_allclose(a, RADAU3_A, rtol=0, atol=1e-15)
    np.testing.assert_allclose(e, RADAU3_E, rtol=0, atol=1e-15 * np.max(np.abs(RADAU3_E)))


def test_tableau_meets_the_order_conditions():
    # B(2s-1): the weights b (A's last row) integrate x^(k-1) exactly for
    # k <= 2s - 1; C(s): the stages integrate x^(k-1) to c_i for k <= s
    s = dynamics._STAGES
    a = dynamics._A
    c, b = a.sum(axis=1), a[-1]
    for k in range(1, 2 * s):
        assert abs(b @ c ** (k - 1) - 1 / k) < 1e-13, k
    for k in range(1, s + 1):
        np.testing.assert_allclose(a @ c ** (k - 1), c ** k / k, rtol=0, atol=1e-13)


def test_tableau_is_l_stable():
    # R(z) = 1 + z b^T (I - z A)^-1 1 is bounded by 1, up to rounding, on
    # the imaginary axis (A-stability) and vanishes at -infinity
    a = dynamics._A
    ones, eye = np.ones(len(a)), np.eye(len(a))

    def stability(z):
        return 1 + z * a[-1] @ np.linalg.solve(eye - z * a, ones)

    assert max(abs(stability(1j * y)) for y in np.logspace(-6, 6, 121)) <= 1 + 1e-15
    assert abs(stability(-1e8)) < 1e-6


def test_singular_newton_matrix_raises():
    # the real and the complex stage matrices go through one factorization
    for dtype in (float, complex):
        with pytest.raises(NumericalContractError):
            dynamics._gttrf(np.zeros(3), np.zeros(4, dtype=dtype), np.zeros(3))


@pytest.mark.parametrize("c", [
    toy_chain(30, u=0.0, eta=1.5),
    toy_chain(30, u=0.2, eta=1.5),
], ids=["0.0", "0.2"])
def test_evolution_matches_matrix_exponential(c):
    grid = [0.0, 0.5, 1.0, 1.5]
    # the expm oracle lives on the same truncated chain, so boundary spill
    # is irrelevant to this comparison
    phi = solve_chain(c, grid, rtol=1e-11).y
    for t, column in zip(grid, phi.T):
        assert column.dtype == np.float64
        ref = chain_evolution_expm(c.a_array(), np.real(c.b_array()), t)
        assert np.max(np.abs(column - ref)) < 1e-9


def test_step_size_underflow_raises():
    # floats near t = 1e16 are 2 apart, far above any step this chain allows
    with pytest.raises(NumericalContractError):
        dynamics.solve_ivp((np.zeros(4), np.ones(3)), (1e16, 1e16 + 64), np.eye(4)[0],
                           t_eval=[1e16 + 64], rtol=1e-9)


def test_rejected_steps_keep_the_accuracy():
    # the wave of a short closed chain reflects off its wall over and over;
    # steps sized on the free spreading then fail their error test
    c = toy_chain(10, u=0.0, eta=1.5)
    grid = [0.0, 5.0, 10.0]
    res = solve_chain(c, grid, rtol=1e-9)
    assert res.nreject > 0
    for t, column in zip(grid, res.y.T):
        ref = chain_evolution_expm(c.a_array(), np.real(c.b_array()), t)
        assert np.max(np.abs(column - ref)) < 1e-9


def test_evolution_matches_meixner_closed_form():
    p = MeixnerParams(u=0.1, eta=1.5)
    n_trunc = meixner_n_trunc(p, t_max=4.0)
    c = meixner_tridiagonal(p, n_trunc)
    grid = np.linspace(0.0, 4.0, 9)
    phi = evolve_chain(c, grid)
    for t, column in zip(grid, phi.T):
        ref = meixner_wavefunction(np.arange(n_trunc + 1), t, p)
        # chain amplitudes are real and positive in this convention
        assert column.dtype == np.float64
        assert np.max(np.abs(column - ref)) < 1e-9


def record_solves(monkeypatch):
    """Wrap dynamics.solve_ivp; returns the list of (y0, result) of each call."""
    calls = []
    solve = dynamics.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        res = solve(fun, t_span, y0, **kwargs)
        calls.append((y0, res))
        return res

    monkeypatch.setattr(dynamics, "solve_ivp", recording)
    return calls


def test_meixner_ode_state_has_one_real_entry_per_site(monkeypatch):
    # by t = 0.1 the front has not reached the 21st site
    calls = record_solves(monkeypatch)
    evolve_chain(toy_chain(20, u=0.1), [0.0, 0.1])
    ((y0, _),) = calls
    assert y0.shape == (21,)
    assert y0.dtype == np.float64


def u001_chain(fraction=1.0):
    """The u = 0.01, eta = 0.5, t <= 8 Meixner chain of `dsyk evolve`, cut to
    the given fraction of the length meixner_n_trunc asks for."""
    p = MeixnerParams(u=0.01, eta=0.5)
    n_trunc = int(fraction * meixner_n_trunc(p, t_max=8.0))
    return meixner_tridiagonal(p, n_trunc), np.linspace(0.0, 8.0, 61)


def test_chain_ode_steps_at_the_accuracy_limit(monkeypatch):
    # an explicit method is held to h * 2 b_max ~ 8 by stability: about
    # 47,000 evaluations on this chain.  Radau IIA of order 13 takes about
    # one step per output interval, and each landing step reuses the
    # factorizations of the one before
    calls = record_solves(monkeypatch)
    c, grid = u001_chain()
    evolve_chain(c, grid, rtol=1e-9)
    ((_, res),) = calls
    assert res.nfev < 2 * len(grid)
    assert 0 < res.nlu <= 10


def test_landing_steps_leave_no_sliver(monkeypatch):
    # grid spacings differ in their last bits: a step kept at one spacing
    # must land on the next grid time, not stop an ulp short of it.  Every
    # step taken was factorized, and the real stage matrix MU_0/h - G has
    # the diagonal MU_0/h - ia
    c, grid = u001_chain()
    ia0 = np.real(1j * c.a[0])
    steps = []
    gttrf = dynamics._gttrf

    def recording(dl, d, du):
        if not np.iscomplexobj(d):
            steps.append(dynamics._MU_REAL / (d[0] + ia0))
        return gttrf(dl, d, du)

    monkeypatch.setattr(dynamics, "_gttrf", recording)
    solve_chain(c, grid, rtol=1e-9)
    assert min(steps) >= 1e-6 * (grid[1] - grid[0])


@pytest.mark.parametrize("fraction, raises", [(0.5, True), (0.8, True), (0.9, True),
                                              (0.95, False)],
                         ids=["0.5", "0.8", "0.9", "0.95"])
def test_damping_does_not_hide_truncation(fraction, raises):
    # Radau IIA is L-stable, so it damps the spurious fast modes of a short
    # chain; the boundary amplitude must still expose the truncation.  The
    # largest spills are 2.5e-5, 8.6e-8, 1.3e-8 and 5.1e-9
    c, grid = u001_chain(fraction)
    with pytest.raises(TruncationError) if raises else contextlib.nullcontext():
        evolve_chain(c, grid, rtol=1e-9)


@pytest.mark.parametrize("c", [toy_chain(10)], ids=["meixner"])
def test_one_point_grid_returns_initial_state(c):
    phi = evolve_chain(c, [0.0])
    assert phi.shape == (len(c.a), 1)
    assert phi.dtype == np.float64
    np.testing.assert_array_equal(phi[:, 0], np.eye(1, len(c.a))[0])


def test_spill_raises_or_flags():
    c = toy_chain(12, u=0.0, eta=1.0)  # closed system reaches the wall fast
    grid = [0.0, 3.0]
    with pytest.raises(TruncationError):
        evolve_chain(c, grid)


def test_spill_is_the_boundary_amplitude_over_the_peak(monkeypatch):
    # a bound equal to the largest |phi_last| / max |phi| holds, one just
    # below it fails at that time; at t = 0 only site 0 is occupied
    c, grid = toy_chain(12, u=0.0, eta=1.0), [0.0, 0.5, 1.0]
    phi = solve_chain(c, grid, rtol=1e-11).y
    spill = np.abs(phi[-1]) / np.max(np.abs(phi), axis=0)
    assert spill[0] == 0.0 and spill.max() > 0.0
    monkeypatch.setattr(dynamics, "SPILL_TOL", spill.max())
    np.testing.assert_array_equal(evolve_chain(c, grid), phi)
    monkeypatch.setattr(dynamics, "SPILL_TOL", 0.999 * spill.max())
    with pytest.raises(TruncationError, match=f"at t={grid[np.argmax(spill)]};"):
        evolve_chain(c, grid)


def test_k_complexity_numeric_matches_direct_sums():
    phi = np.array([0.5, 0.3 + 0.1j, 0.2, 0.05])
    k, var, z = k_complexity_numeric(phi)
    k_ref, var_ref = direct_k_and_variance(phi)
    assert k == pytest.approx(k_ref)
    assert var == pytest.approx(var_ref)
    assert z == pytest.approx(float(np.sum(np.abs(phi) ** 2)))


def test_k_complexity_underflow_guard():
    with pytest.raises(NumericalContractError):
        k_complexity_numeric(np.zeros(4))


def test_stationary_tail_fit_recovers_decay_length():
    p = MeixnerParams(u=0.2, eta=1.5)
    ns = np.arange(301)
    phi = meixner_wavefunction(ns, 25.0, p)
    xi = stationary_tail_fit(phi, (150, 250), eta=p.eta)
    rate = math.log((1 + 0.2) / math.sqrt(1 - 0.2 ** 2))
    assert xi == pytest.approx(1.0 / rate, rel=1e-3)


def test_stationary_tail_fit_rejects_bad_windows():
    decaying = np.array([1.0, 0.5, 0.25, 0.125])
    with pytest.raises(FitError):
        stationary_tail_fit(decaying, (2, 9))
    growing = np.array([0.1, 0.2, 0.4, 0.8])
    with pytest.raises(FitError):
        stationary_tail_fit(growing, (0, 3))


def test_meixner_n_trunc_covers_exact_solution():
    p = MeixnerParams(u=0.05, eta=1.0)
    n = meixner_n_trunc(p, t_max=5.0)
    phi = meixner_wavefunction(np.arange(n + 1), 5.0, p)
    assert phi[-1] / phi.max() < 1e-9


def test_meixner_n_trunc_finds_the_first_site_below_the_cut():
    # at eta < 1 phi_n falls from n = 0 on; the answer lies past 512, where a
    # search by doubling windows would stop
    p = MeixnerParams(u=0.0, eta=0.5)
    assert meixner_n_trunc(p, t_max=2.2) == 765


def test_meixner_n_trunc_starts_past_a_late_peak():
    # at eta = 60 phi_n peaks at n = 263, and phi_0 already lies below the
    # cut: the answer is the first site past the peak that does
    p = MeixnerParams(u=0.1, eta=60.0)
    n = meixner_n_trunc(p, 4.0)
    assert n == 758
    phi = meixner_wavefunction(np.arange(n + 1), 4.0, p)
    assert int(np.argmax(phi)) == 263
    assert phi[-1] / phi.max() < 1e-9 <= phi[-2] / phi.max()


def test_meixner_n_trunc_refuses_a_chain_that_never_decays():
    # at u = 0, tanh(20) rounds to 1 and phi_n falls slower than any cut
    with pytest.raises(ResourceLimitError):
        meixner_n_trunc(MeixnerParams(u=0.0, eta=1.0), t_max=20.0)
