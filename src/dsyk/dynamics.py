"""Numerical evolution of the Krylov-chain amplitude equation.

d(phi_n)/dt = i a_n phi_n - b_(n+1) phi_(n+1) + b_n phi_(n-1),
phi_n(0) = delta_(n,0).  The a_n are themselves imaginary for the
dissipative chain, so i a_n is a real damping; the sign and factor
conventions are locked by reproducing the exact Meixner solution.

Radau IIA, an L-stable implicit method, steps at the accuracy limit of
the O(1) physical frequencies, not at the stability limit of the truncated
tail's large b_n; its Newton systems use the banded generator directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import Radau, solve_ivp
from scipy.linalg import get_lapack_funcs
from scipy.sparse import diags, identity, kron

from .analytic import MeixnerParams, meixner_wavefunction
from .errors import (
    NumericalContractError,
    ResourceLimitError,
    TruncationError,
    ValidationError,
)
from .krylov import TridiagonalCoeffs

DEFAULT_SPILL_TOL = 1e-8


class _BandedRadau(Radau):
    """Radau IIA solving its Newton systems by LAPACK's banded LU, whose
    storage is the band alone, unlike the SuperLU workspace scipy uses."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        jac = self.J.tocoo()
        w = int(np.max(np.abs(jac.col - jac.row), initial=0))

        def lu(a):
            self.nlu += 1
            a = a.tocoo()
            ab = np.zeros((3 * w + 1, self.n), dtype=a.dtype, order="F")
            ab[2 * w + a.row - a.col, a.col] = a.data
            gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
            factor, piv, info = gbtrf(ab, w, w, overwrite_ab=True)
            if info != 0:
                raise NumericalContractError(f"banded LU failed (gbtrf info={info})")
            return gbtrs, factor, piv

        def solve_lu(lu_, rhs):
            gbtrs, factor, piv = lu_
            return gbtrs(factor, w, w, rhs, piv)[0]

        self.lu = lu
        self.solve_lu = solve_lu


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
    gen = diags([b, ia, -b], [-1, 0, 1], format="csr")
    split = np.iscomplexobj(gen)
    if split:
        # Radau needs a real state: interleave (Re phi_n, Im phi_n)
        gen = (kron(gen.real, identity(2))
               + kron(gen.imag, [[0.0, -1.0], [1.0, 0.0]])).tocsr()
    y0 = np.zeros(gen.shape[0])
    y0[0] = 1.0
    if t_grid.size == 1:
        sols = y0[:, None]
    else:
        res = solve_ivp(lambda _, phi: gen @ phi, (0.0, float(t_grid[-1])), y0,
                        method=_BandedRadau, t_eval=t_grid, rtol=rtol, atol=atol,
                        jac=gen)
        if not res.success:
            raise NumericalContractError(f"ODE integration failed: {res.message}")
        sols = res.y
    if split:
        sols = sols[0::2] + 1j * sols[1::2]
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
