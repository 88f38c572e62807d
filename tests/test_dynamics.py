"""Chain ODE integration against matrix-exponential and closed-form oracles."""

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
    # 47,000 evaluations on this chain, against about 480 products G y for
    # Radau IIA
    calls = record_solves(monkeypatch)
    c, grid = u001_chain()
    evolve_chain(c, grid, rtol=1e-9)
    ((_, res),) = calls
    assert res.nfev < 10_000
    assert res.nlu > 0


def test_damping_does_not_hide_truncation():
    # Radau IIA is L-stable, so it damps the spurious fast modes of a short
    # chain; the boundary amplitude must still expose the truncation
    c, grid = u001_chain(fraction=0.5)
    with pytest.raises(TruncationError):
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
