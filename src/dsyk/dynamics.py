"""Numerical evolution of the Krylov-chain amplitude equation.

d(phi_n)/dt = i a_n phi_n - b_(n+1) phi_(n+1) + b_n phi_(n-1),
phi_n(0) = delta_(n,0).  The a_n are themselves imaginary for the
dissipative chain, so i a_n is a real damping and the chain is one real
tridiagonal system y' = G y; the sign and factor conventions are locked by
reproducing the exact Meixner solution.

Radau IIA, an L-stable implicit method, steps at the accuracy limit of
the O(1) physical frequencies, not at the stability limit of the truncated
tail's large b_n.  G is constant, so its stage equations are linear and
each step is solved outright by LAPACK's tridiagonal LU, with no Newton
iteration.

Of scipy only the LAPACK extension behind ``scipy.linalg.lapack`` is
loaded, straight from its file: importing ``scipy.linalg`` would load the
whole package, about 300 modules and a quarter of a second of every
subcommand's start-up, for four routines.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .analytic import MeixnerParams
from .errors import (
    NumericalContractError,
    ResourceLimitError,
    TruncationError,
    ValidationError,
)
from .krylov import TridiagonalCoeffs

# the largest boundary amplitude, relative to the peak, that evolve_chain accepts
SPILL_TOL = 1e-8


def _load_flapack():
    """scipy's compiled LAPACK wrappers (``scipy/linalg/_flapack``), loaded
    without importing scipy or scipy.linalg."""
    scipy_spec = importlib.util.find_spec("scipy")
    spec = scipy_spec and importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(scipy_spec.submodule_search_locations[0], "linalg")])
    if spec is None:
        raise ImportError("scipy's LAPACK extension scipy/linalg/_flapack was not found; "
                          "dsyk needs scipy with its compiled LAPACK wrappers")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgttrf, dgttrs, zgttrf, zgttrs = (_flapack.dgttrf, _flapack.dgttrs,
                                  _flapack.zgttrf, _flapack.zgttrs)

# Radau IIA of order 5 (Hairer and Wanner, Solving ODEs II, IV.8): the
# Butcher matrix A, the weights E of the embedded error estimate, and the
# step-size control of the standard Radau codes (safety 0.9, factor clipped
# to [0.2, 10], a step kept with its factorizations while the factor stays
# below 1.2).
_S6 = 6 ** 0.5
_A = np.array([[(88 - 7 * _S6) / 360, (296 - 169 * _S6) / 1800, (-2 + 3 * _S6) / 225],
               [(296 + 169 * _S6) / 1800, (88 + 7 * _S6) / 360, (-2 - 3 * _S6) / 225],
               [(16 - _S6) / 36, (16 + _S6) / 36, 1 / 9]])
_E = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1]) / 3
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _KEEP_BELOW = 0.9, 0.2, 10.0, 1.2


def _stage_basis():
    """Eigenvalues lambda_k and eigenvectors V of A, the real one first,
    scaled so that V^-1 (1, 1, 1) = (1, 1, 1).  The stages Z = V W of
    y' = G y then decouple into (MU_k/h - G) W_k = G y with MU_k = 1/lambda_k:
    a real W_0 and a complex conjugate pair W_1, W_2."""
    lam, v = np.linalg.eig(_A)
    order = np.argsort(np.abs(lam.imag))
    lam, v = lam[order], v[:, order]
    return 1 / lam[0].real, 1 / lam[1], v * np.linalg.solve(v, np.ones(3))


_MU_REAL, _MU_COMPLEX, _V = _stage_basis()
# the step Z_3 and the error combination E.Z as w_0 W_0 + Re(w_1 W_1)
_STEP_WEIGHTS = (_V[2, 0].real, 2 * _V[2, 1])
_ERROR_WEIGHTS = ((_E @ _V[:, 0]).real, 2 * (_E @ _V[:, 1]))


@dataclass
class ChainSolution:
    """Amplitudes at the requested times, one column each, and the work
    done: nfev products G y (two to choose the first step, then one per
    accepted step), nlu factorizations of the real and complex stage
    matrices, and nreject rejected steps."""

    y: np.ndarray
    nfev: int
    nlu: int
    nreject: int


def _gttrf(dl, d, du):
    """LAPACK's LU of the tridiagonal matrix (dl, d, du), in d's dtype."""
    *factors, info = (zgttrf if np.iscomplexobj(d) else dgttrf)(dl, d, du)
    if info != 0:
        raise NumericalContractError(f"tridiagonal LU failed (gttrf info={info})")
    return factors


def _rms(x):
    return math.sqrt(np.dot(x, x) / x.size)


def solve_ivp(generator, t_span, y0, *, t_eval, rtol):
    """Integrate y' = G y from t_span[0] to t_span[1] by Radau IIA, to the
    relative tolerance rtol and the absolute tolerance rtol/100.

    generator = (ia, b) is the constant real tridiagonal G with diagonal
    ia, subdiagonal b and superdiagonal -b.  t_eval is an increasing grid in
    t_span ending at t_span[1]; steps are cut to land on each of its times,
    so the solution there needs no interpolation.  With a linear right-hand
    side and an exact Jacobian a step is one real and one complex
    tridiagonal solve for its stages, plus one real solve for its error
    estimate.  A singular stage matrix or a step size below rounding raises
    NumericalContractError.
    """
    ia, b = generator
    atol = 1e-2 * rtol
    nfev = nlu = nreject = 0

    def apply(y):
        nonlocal nfev
        nfev += 1
        gy = ia * y
        gy[1:] += b * y[:-1]
        gy[:-1] -= b * y[1:]
        return gy

    t, t_end = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float)
    f = apply(y)
    # the first step for an error estimate of order 3 (Hairer, Norsett and
    # Wanner, Solving ODEs I, II.4)
    scale = atol + rtol * np.abs(y)
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6, t_end - t)
    d2 = _rms((apply(y + h0 * f) - f) / scale) / h0
    h = min(100 * h0, t_end - t, (0.01 / max(d1, d2)) ** 0.25
            if max(d1, d2) > 1e-15 else max(1e-6, 1e-3 * h0))

    out = np.empty((y.size, len(t_eval)))
    h_lu = None
    for k, t_next in enumerate(t_eval):
        while t < t_next:
            if h < 10 * (math.nextafter(t, math.inf) - t):
                raise NumericalContractError(f"step size underflow at t={t}")
            step = min(h, t_next - t)
            if step != h_lu:
                lu_real = _gttrf(-b, _MU_REAL / step - ia, b)
                lu_complex = _gttrf(-b, _MU_COMPLEX / step - ia, b)
                h_lu = step
                nlu += 1
            w_real = dgttrs(*lu_real, f)[0]
            w_complex = zgttrs(*lu_complex, f)[0]
            y_new = y + _STEP_WEIGHTS[0] * w_real + (_STEP_WEIGHTS[1] * w_complex).real
            ze = (_ERROR_WEIGHTS[0] * w_real + (_ERROR_WEIGHTS[1] * w_complex).real) / step
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = _rms(dgttrs(*lu_real, f + ze)[0] / scale)
            if not err_norm <= 1:
                # rejected; a nan estimate (an overflowed step) shrinks it most
                h = step * (max(_MIN_FACTOR, _SAFETY * err_norm ** -0.25)
                            if math.isfinite(err_norm) else _MIN_FACTOR)
                nreject += 1
                continue
            factor = (min(_MAX_FACTOR, _SAFETY * err_norm ** -0.25)
                      if err_norm > 0 else _MAX_FACTOR)
            h = step * factor if factor >= _KEEP_BELOW else step
            t = t_next if step == t_next - t else t + step
            y, f = y_new, apply(y_new)
        out[:, k] = y
    return ChainSolution(out, nfev, nlu, nreject)


def evolve_chain(c: TridiagonalCoeffs, t_grid, rtol=1e-11):
    """Integrate the chain ODE on all of c's sites over an increasing grid
    starting at 0.

    i a_n and b_n must be real, and the chain at least 3 sites long.
    Returns the float64 amplitudes phi_n(t), one row per site and one
    column per grid time.  If the boundary amplitude ever exceeds
    SPILL_TOL of the peak amplitude, the chain is too short and
    TruncationError is raised.
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
    y0 = np.zeros(ia.size)
    y0[0] = 1.0
    if t_grid.size == 1:
        phi = y0[:, None]
    else:
        phi = solve_ivp((ia, b), (0.0, float(t_grid[-1])), y0, t_eval=t_grid, rtol=rtol).y
    for t, column in zip(t_grid, phi.T):
        peak = np.max(np.abs(column))
        if abs(column[-1]) > SPILL_TOL * peak:
            raise TruncationError(
                f"boundary spill {abs(column[-1]) / peak:.2e} > {SPILL_TOL:.2e} at t={t}; "
                f"the chain needs more than {ia.size} sites")
    return phi


def k_complexity_numeric(phi):
    """(K, variance, Z) of the normalized wavefunction |phi_n|^2/Z of one
    column of chain amplitudes."""
    w = np.abs(phi) ** 2
    z = float(np.sum(w))
    if z < 1e-300:
        raise NumericalContractError("wavefunction norm underflowed; rescale")
    ns = np.arange(w.size)
    k = float(np.dot(ns, w)) / z
    var = float(np.dot((ns - k) ** 2, w)) / z
    return k, var, z


def meixner_n_trunc(p: MeixnerParams, t_max: float) -> int:
    """Truncation index keeping the exact-solution boundary weight small:
    the first n past the peak of phi_n(t_max) where phi_n falls below
    SPILL_TOL/10 of the peak, and at least 50.

    With r = sqrt(1-u^2) tanh t/(1 + u tanh t), log phi_n = n log r
    + [lgamma(eta+n) - lgamma(n+1)]/2 + const and phi_(n+1)/phi_n =
    r sqrt((eta+n)/(n+1)), so phi_n rises while n < (r^2 eta - 1)/(1 - r^2)
    and falls after it.  From the peak an exponential search brackets the
    crossing and bisection finds it.  Raises ResourceLimitError for t_max
    so large that r rounds to 1 and phi_n no longer decays.
    """
    th = math.tanh(t_max)
    r = math.sqrt(1.0 - p.u ** 2) * th / (1.0 + p.u * th)
    if r >= 1.0:
        raise ResourceLimitError(
            f"phi_n does not decay in n at t={t_max} (u={p.u}); reduce t_max")
    log_r = math.log(r)

    def log_phi(n):
        return n * log_r + 0.5 * (math.lgamma(p.eta + n) - math.lgamma(n + 1.0))

    peak = max(0, math.floor((r * r * p.eta - 1.0) / (1.0 - r * r)) + 1)
    cut = log_phi(peak) + math.log(SPILL_TOL / 10.0)
    lo, hi = peak, peak + 1   # phi_lo is above the cut; is phi_hi below it?
    while log_phi(hi) >= cut:
        lo, hi = hi, 2 * hi - peak
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if log_phi(mid) < cut else (mid, hi)
    return max(hi, 50)
