"""Numerical evolution of the Krylov-chain amplitude equation.

d(phi_n)/dt = i a_n phi_n - b_(n+1) phi_(n+1) + b_n phi_(n-1),
phi_n(0) = delta_(n,0).  The a_n are themselves imaginary for the
dissipative chain, so i a_n is a real damping and the chain is one real
tridiagonal system; the sign and factor conventions are locked by
reproducing the exact Meixner solution.

Radau IIA, an L-stable implicit method, steps at the accuracy limit of
the O(1) physical frequencies, not at the stability limit of the truncated
tail's large b_n; its Newton systems are solved by LAPACK's tridiagonal LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import Radau, solve_ivp
from scipy.linalg import get_lapack_funcs
from scipy.sparse import diags

from .analytic import MeixnerParams, meixner_wavefunction
from .errors import (
    NumericalContractError,
    ResourceLimitError,
    TruncationError,
    ValidationError,
)
from .krylov import TridiagonalCoeffs

DEFAULT_SPILL_TOL = 1e-8


class _TridiagonalRadau(Radau):
    """Radau IIA solving its Newton systems by LAPACK's tridiagonal LU
    (gttrf/gttrs), whose storage is the three diagonals alone."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lu, self.solve_lu = self._gttrf, self._gttrs

    def _gttrf(self, a):
        self.nlu += 1
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (a.data,))
        *factors, info = gttrf(a.diagonal(-1), a.diagonal(), a.diagonal(1),
                               overwrite_dl=True, overwrite_d=True, overwrite_du=True)
        if info != 0:
            raise NumericalContractError(f"tridiagonal LU failed (gttrf info={info})")
        return gttrs, factors

    @staticmethod
    def _gttrs(lu, rhs):
        gttrs, factors = lu
        return gttrs(*factors, rhs)[0]


@dataclass
class ChainState:
    """Chain amplitudes phi_0..phi_n_trunc at one instant."""

    phi: np.ndarray
    t: float

    @property
    def n_trunc(self) -> int:
        return self.phi.size - 1

    @property
    def spill(self) -> float:
        """Boundary amplitude relative to the peak amplitude."""
        peak = float(np.max(np.abs(self.phi)))
        if peak == 0.0:
            return 0.0
        return float(np.abs(self.phi[-1])) / peak


def evolve_chain(c: TridiagonalCoeffs, t_grid, rtol=1e-11, atol=1e-13,
                 spill_tol=DEFAULT_SPILL_TOL):
    """Integrate the chain ODE on all of c's sites over an increasing grid
    starting at 0.

    i a_n and b_n must be real, and the chain at least 3 sites long; the
    amplitudes are float64.  Returns one ChainState per grid time.  If the
    boundary amplitude ever exceeds spill_tol relative to the peak, the
    chain is too short and TruncationError is raised.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] != 0.0 \
            or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be increasing and start at 0")
    ia = np.real_if_close(1j * c.a_array())
    b = np.real_if_close(c.b_array())
    if np.iscomplexobj(ia) or np.iscomplexobj(b):
        raise ValidationError("chain ODE requires real i a_n and b_n")
    if ia.size < 3:
        raise ValidationError(f"chain ODE needs at least 3 sites, got {ia.size}")
    gen = diags([b, ia, -b], [-1, 0, 1], format="csr")
    y0 = np.zeros(ia.size)
    y0[0] = 1.0
    if t_grid.size == 1:
        sols = y0[:, None]
    else:
        res = solve_ivp(lambda _, phi: gen @ phi, (0.0, float(t_grid[-1])), y0,
                        method=_TridiagonalRadau, t_eval=t_grid, rtol=rtol,
                        atol=atol, jac=gen)
        if not res.success:
            raise NumericalContractError(f"ODE integration failed: {res.message}")
        sols = res.y
    states = [ChainState(phi=sols[:, i], t=float(t)) for i, t in enumerate(t_grid)]
    for st in states:
        if st.spill > spill_tol:
            raise TruncationError(
                f"boundary spill {st.spill:.2e} > {spill_tol:.2e} at t={st.t}; "
                f"the chain needs more than {ia.size} sites")
    return states


def k_complexity_numeric(s: ChainState):
    """(K, variance, Z) of the normalized wavefunction |phi_n|^2/Z."""
    w = np.abs(s.phi) ** 2
    z = float(np.sum(w))
    if z < 1e-300:
        raise NumericalContractError("wavefunction norm underflowed; rescale")
    ns = np.arange(w.size)
    k = float(np.dot(ns, w)) / z
    var = float(np.dot((ns - k) ** 2, w)) / z
    return k, var, z


def meixner_n_trunc(p: MeixnerParams, t_max: float, n_cap=200_000) -> int:
    """Truncation index keeping the exact-solution boundary weight small.

    Searches for the smallest n where phi_n(t_max) falls below
    DEFAULT_SPILL_TOL/10 of the peak amplitude, on windows doubling from 64
    sites up to n_cap.
    """
    tol = DEFAULT_SPILL_TOL / 10.0
    n = min(64, n_cap)
    while True:
        phi = meixner_wavefunction(np.arange(n + 1), t_max, p)
        rel = phi / np.max(phi)
        below = np.nonzero(rel < tol)[0]
        if below.size and below[-1] == n and np.all(rel[below[0]:] < tol):
            return max(int(below[0]), 50)
        if n == n_cap:
            raise ResourceLimitError(
                f"chain needs more than {n_cap} sites at t={t_max} (u={p.u}); "
                "reduce t_max or raise n_cap")
        n = min(2 * n, n_cap)
