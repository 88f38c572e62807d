"""Numerical evolution of the Krylov-chain amplitude equation.

d(phi_n)/dt = i a_n phi_n - b_(n+1) phi_(n+1) + b_n phi_(n-1),
phi_n(0) = delta_(n,0).  The a_n are themselves imaginary for the
dissipative chain, so i a_n is a real damping; the sign and factor
conventions are locked by reproducing the exact Meixner solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .analytic import MeixnerParams, meixner_wavefunction
from .errors import (
    NumericalContractError,
    ResourceLimitError,
    TruncationError,
    ValidationError,
)
from .krylov import TridiagonalCoeffs

DEFAULT_SPILL_TOL = 1e-8


@dataclass
class ChainState:
    """Chain amplitudes phi_0..phi_n_trunc at one instant."""

    phi: np.ndarray
    t: float
    contaminated: bool = field(default=False)

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


def evolve_chain(c: TridiagonalCoeffs, t_grid, n_trunc=None, rtol=1e-11,
                 atol=1e-13, spill_tol=DEFAULT_SPILL_TOL, raise_on_spill=True):
    """Integrate the chain ODE over an increasing grid starting at 0.

    The state has the dtype of i a_n and b_n: real for the Meixner chains,
    complex otherwise.  Returns one ChainState per grid time.  If the
    boundary amplitude ever exceeds spill_tol relative to the peak, the run
    is truncation contaminated: an error by default, or flagged states with
    raise_on_spill=False.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] != 0.0 \
            or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be increasing and start at 0")
    if n_trunc is None:
        n_trunc = len(c.a) - 1
    if len(c.a) < n_trunc + 1 or len(c.b_sq) < n_trunc:
        raise ValidationError(
            f"coefficients cover n <= {len(c.a) - 1}, need n_trunc={n_trunc}")
    ia = np.real_if_close(1j * c.a_array()[: n_trunc + 1])
    b = np.real_if_close(c.b_array()[:n_trunc])
    if np.iscomplexobj(b):
        raise ValidationError("chain ODE requires real b_n")

    def rhs(_, phi):
        d = ia * phi
        d[:-1] -= b * phi[1:]
        d[1:] += b * phi[:-1]
        return d

    y0 = np.zeros(n_trunc + 1, dtype=np.result_type(ia, b))
    y0[0] = 1.0
    if t_grid.size == 1:
        sols = y0[:, None]
    else:
        res = solve_ivp(rhs, (0.0, float(t_grid[-1])), y0, method="DOP853",
                        t_eval=t_grid, rtol=rtol, atol=atol)
        if not res.success:
            raise NumericalContractError(f"ODE integration failed: {res.message}")
        sols = res.y
    states = []
    for i, t in enumerate(t_grid):
        st = ChainState(phi=sols[:, i], t=float(t))
        if st.spill > spill_tol:
            if raise_on_spill:
                raise TruncationError(
                    f"boundary spill {st.spill:.2e} > {spill_tol:.2e} at t={t}; "
                    f"increase n_trunc beyond {n_trunc}")
            st.contaminated = True
        states.append(st)
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


def meixner_n_trunc(p: MeixnerParams, t_max: float, spill_tol=DEFAULT_SPILL_TOL,
                    n_cap=200_000) -> int:
    """Truncation index keeping the exact-solution boundary weight small.

    Searches for the smallest n where phi_n(t_max) falls below
    spill_tol/10 of the peak amplitude, doubling until found.
    """
    phi_peak = None
    n = 64
    while n <= n_cap:
        ns = np.arange(n + 1)
        phi = meixner_wavefunction(ns, t_max, p)
        phi_peak = float(np.max(phi))
        rel = phi / phi_peak
        below = np.nonzero(rel < spill_tol / 10.0)[0]
        if below.size and below[-1] == n and np.all(rel[below[0]:] < spill_tol / 10.0):
            return max(int(below[0]), 50)
        n *= 2
    raise ResourceLimitError(
        f"chain needs more than {n_cap} sites at t={t_max} (u={p.u}); "
        "reduce t_max or raise n_cap")
