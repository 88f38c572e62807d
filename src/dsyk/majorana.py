"""Finite-N Majorana operators as Jordan-Wigner matrices.

N Majoranas (gamma = sqrt(2) psi, so gamma^2 = 1) act on D = 2^(N/2)
states.  gamma_(2k) = Z..Z X and gamma_(2k+1) = Z..Z Y act on qubit k, the
k-th Kronecker factor (bit N/2 - 1 - k of a state index).  Each gamma_k,
and so each ascending product gamma_S of them (a Majorana string), is a
signed permutation, gamma_S |x> = phase_S(x) |x ^ flip_S>, which is how
operators are built here: without dense Kronecker products.

Operators are D x D matrices under the normalized trace inner product
(A|B) = Tr[A^dag B]/D, under which the 2^N strings are orthonormal, so
norms and overlaps equal those of the string amplitudes.  The commutator
with the SYK Hamiltonian, the hot path of the finite-N Arnoldi, is two
matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np
from numpy.random import default_rng

from .errors import ValidationError

# (strings x states) entries per vectorized block when summing strings, so
# that building H holds no temporary much larger than one operator
_BLOCK_ENTRIES = 1 << 14


def _dimension(n):
    """D = 2^(N/2), the number of states N Majoranas act on."""
    if n <= 0 or n % 2:
        raise ValidationError(f"N={n} Majoranas need an even positive N")
    return 1 << (n // 2)


def _gamma_tables(n):
    """(flips, phases) with gamma_k |x> = phases[k, x] |x ^ flips[k]>."""
    d = _dimension(n)
    x = np.arange(d)
    flips = np.empty(n, dtype=np.int64)
    phases = np.empty((n, d), dtype=complex)
    z = np.ones(d)   # the Z string: (-1)^(occupation of the qubits before k)
    for k in range(n // 2):
        bit = n // 2 - 1 - k
        sign = 1 - 2 * ((x >> bit) & 1)
        flips[2 * k] = flips[2 * k + 1] = 1 << bit
        phases[2 * k] = z                      # X
        phases[2 * k + 1] = 1j * z * sign      # Y|0> = i|1>, Y|1> = -i|0>
        z = z * sign
    return flips, phases


def _sum_of_strings(n, strings, amps):
    """D x D matrix of sum_t amps[t] gamma_(strings[t]), strings as ascending index tuples."""
    flips, phases = _gamma_tables(n)
    d = phases.shape[1]
    x = np.arange(d)
    amps = np.asarray(amps, dtype=complex)
    by_length = {}
    for t, s in enumerate(strings):
        by_length.setdefault(len(s), []).append(t)
    re = np.zeros(d * d)
    im = np.zeros(d * d)
    block = max(1, _BLOCK_ENTRIES // d)
    for length, ts in by_length.items():
        for start in range(0, len(ts), block):
            sel = ts[start:start + block]
            idx = np.array([strings[t] for t in sel], dtype=np.int64).reshape(len(sel), length)
            rows = np.broadcast_to(x, (len(sel), d))
            vals = np.broadcast_to(amps[sel, None], (len(sel), d))
            for k in idx.T[::-1]:   # the rightmost factor acts first
                vals = vals * phases[k[:, None], rows]
                rows = rows ^ flips[k][:, None]
            flat = (rows * d + x).ravel()
            re += np.bincount(flat, vals.real.ravel(), d * d)
            im += np.bincount(flat, vals.imag.ravel(), d * d)
    return (re + 1j * im).reshape(d, d)


class OperatorVector:
    """Operator on N Majoranas, held as its D x D Jordan-Wigner matrix."""

    __slots__ = ("n", "matrix")

    def __init__(self, n, matrix):
        self.n = int(n)
        self.matrix = matrix

    # -- constructors -------------------------------------------------

    @classmethod
    def basis_string(cls, n, mask, amplitude=1.0):
        """amplitude * gamma_mask; bit i of mask selects gamma_i."""
        if mask < 0 or mask >> n:
            raise ValidationError(f"mask {mask:#x} does not fit in N={n} Majoranas")
        string = tuple(i for i in range(n) if mask >> i & 1)
        return cls(n, _sum_of_strings(n, [string], [amplitude]))

    # -- views --------------------------------------------------------

    @property
    def n_terms(self):
        """Nonzero matrix entries: at most 2^(N-1) for an operator of one fermion parity."""
        return int(np.count_nonzero(self.matrix))

    # -- algebra ------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, OperatorVector):
            raise TypeError("expected an OperatorVector")
        if self.n != other.n:
            raise ValidationError(
                f"operators live on N={self.n} and N={other.n}")

    def __add__(self, other):
        self._check_compatible(other)
        return OperatorVector(self.n, self.matrix + other.matrix)

    def __mul__(self, scalar):
        return OperatorVector(self.n, self.matrix * scalar)

    __rmul__ = __mul__

    def iaxpy(self, c, other):
        """self += c * other, in place: the Arnoldi update then reuses this
        operator's matrix instead of allocating a new one."""
        self._check_compatible(other)
        self.matrix += other.matrix * c

    def inner(self, other):
        """(self|other) = Tr[self^dag other]/D."""
        self._check_compatible(other)
        return complex(np.vdot(self.matrix, other.matrix)) / self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SykHamiltonian:
    """SYK Hamiltonian H = i^(q/2) sum J_I psi_I over q-subsets I.

    couplings maps ascending q-tuples of Majorana indices to real Gaussian
    samples with variance (q-1)! J^2 / N^(q-1).
    """

    n: int
    q: int
    j: float
    seed: int
    couplings: dict = field(repr=False)

    @cached_property
    def matrix(self):
        """D x D matrix of H, built on first use and kept."""
        prefactor = (1j) ** (self.q // 2) * 2.0 ** (-self.q / 2)   # psi = gamma/sqrt(2)
        amps = prefactor * np.fromiter(self.couplings.values(), float, len(self.couplings))
        return _sum_of_strings(self.n, list(self.couplings), amps)


def sample_syk(n: int, q: int, j: float, seed: int) -> SykHamiltonian:
    """Draw a Gaussian SYK coupling realization (PCG64, deterministic in seed)."""
    if n % 2 or q % 2 or n <= 0 or q <= 0:
        raise ValidationError(f"N and q must be even positive integers, got N={n}, q={q}")
    if q > n:
        raise ValidationError(f"q={q} exceeds N={n}")
    if seed < 0:
        raise ValidationError(f"seed={seed} must be >= 0")
    sigma = math.sqrt(math.factorial(q - 1) * j ** 2 / n ** (q - 1))
    rng = default_rng(seed)
    subsets = list(combinations(range(n), q))
    samples = rng.normal(0.0, sigma, size=len(subsets))
    return SykHamiltonian(n=n, q=q, j=j, seed=seed,
                          couplings=dict(zip(subsets, samples)))


def liouvillian_apply(h: SykHamiltonian, o: OperatorVector) -> OperatorVector:
    """[H, O] = H O - O H."""
    if h.n != o.n:
        raise ValidationError(
            f"Hamiltonian N={h.n} incompatible with operator N={o.n}")
    hm = h.matrix
    return OperatorVector(o.n, hm @ o.matrix - o.matrix @ hm)
