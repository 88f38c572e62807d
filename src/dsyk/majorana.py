"""Finite-N Majorana operators as Jordan-Wigner matrices in parity sectors.

N Majoranas (gamma = sqrt(2) psi, so gamma^2 = 1) act on D = 2^(N/2)
states.  gamma_(2k) = Z..Z X and gamma_(2k+1) = Z..Z Y act on qubit k, the
k-th Kronecker factor (bit N/2 - 1 - k of a state index).  Each gamma_k,
and so each ascending product gamma_S of them (a Majorana string), is a
signed permutation, gamma_S |x> = phase_S(x) |x ^ flip_S>, which is how
operators are built here: without dense Kronecker products.

States are ordered by (p, r): p = popcount(x) mod 2 is the fermion parity
of x and r = x >> 1, so the dropped low bit is p ^ parity(r).  A string of
parity s (its length mod 2) maps states of parity p to parity p ^ s, so its
matrix lives in parity sector s: a (2, D/2, D/2) array whose block p holds
the rows of parity p and the columns of parity p ^ s.  An OperatorVector
holds one such array per sector present.  The Krylov space of psi_0 is
odd, so every Arnoldi vector holds one sector, half the entries of its
D x D matrix; a mixed operator holds both.

Operators carry the normalized trace inner product (A|B) = Tr[A^dag B]/D,
under which the 2^N strings are orthonormal, so norms and overlaps equal
those of the string amplitudes.  The SYK Hamiltonian is even, so it is
block diagonal, and the commutator with it, the hot path of the finite-N
Arnoldi, is H_p X_p - X_p H_(p^s) on block p of sector s: four (D/2)^3
matrix products where the D x D matrices took two D^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def parities(size):
    """popcount(x) mod 2 for the integers x < size, a power of two."""
    p = np.zeros(1, dtype=np.int64)
    while p.size < size:
        p = np.concatenate([p, 1 - p])   # x + 2^k has the other parity of x
    return p


def _gamma_tables(n):
    """(flips, masks, ys) with gamma_k |x> = i^ys[k] (-1)^parity(x & masks[k]) |x ^ flips[k]>.

    gamma_k acts on qubit k // 2 (bit flips[k]); its Z string reads the
    qubits before that one (the higher bits), and a Y (odd k) reads its own
    qubit as well.
    """
    d = _dimension(n)
    k = np.arange(n)
    bit = n // 2 - 1 - k // 2
    ys = k & 1
    flips = 1 << bit
    masks = ((d - 1) ^ ((flips << 1) - 1)) | (ys * flips)
    return flips, masks, ys


def _sector_of_strings(n, strings, amps):
    """Sector blocks of sum_t amps[t] gamma_(strings[t]), strings as ascending
    index tuples, all of one parity s: entry [p, r, c] is the matrix element
    between the state (p, r) and the state (p ^ s, c)."""
    flips, masks, ys = _gamma_tables(n)
    d = _dimension(n)
    half = d // 2
    x = np.arange(d)
    px, cols = parities(d), x >> 1
    amps = np.asarray(amps, dtype=complex)
    by_length = {}
    for t, s in enumerate(strings):
        by_length.setdefault(len(s), []).append(t)
    re = np.zeros(d * half)
    im = np.zeros(d * half)
    block = max(1, _BLOCK_ENTRIES // d)
    for length, ts in by_length.items():
        idx = np.array([strings[t] for t in ts], dtype=np.int64).reshape(len(ts), length)
        # gamma_S |x> = i^e (-1)^parity(x & mask) |x ^ flip>: in an ascending
        # product each factor acts after those of higher index, which flip
        # only the qubits its mask does not read (or, for gamma_2j before
        # gamma_2j+1, qubit j, which an X does not read)
        flip = np.bitwise_xor.reduce(flips[idx], axis=1)
        mask = np.bitwise_xor.reduce(masks[idx], axis=1)
        coef = amps[ts] * np.array([1, 1j, -1, -1j])[ys[idx].sum(axis=1) & 3]
        for start in range(0, len(ts), block):
            sel = slice(start, start + block)
            sign = 1.0 - 2.0 * px[x & mask[sel, None]]
            rows = x ^ flip[sel, None]
            # the string takes column x (parity px) to a row of parity px ^ s
            flat = (((px ^ (length & 1)) * half + (rows >> 1)) * half + cols).ravel()
            re += np.bincount(flat, (sign * coef.real[sel, None]).ravel(), d * half)
            im += np.bincount(flat, (sign * coef.imag[sel, None]).ravel(), d * half)
    return (re + 1j * im).reshape(2, half, half)


class OperatorVector:
    """Operator on N Majoranas, held as {parity sector s: (2, D/2, D/2) blocks}."""

    __slots__ = ("n", "sectors")

    def __init__(self, n, sectors):
        self.n = int(n)
        self.sectors = sectors

    # -- constructors -------------------------------------------------

    @classmethod
    def basis_string(cls, n, mask, amplitude=1.0):
        """amplitude * gamma_mask; bit i of mask selects gamma_i."""
        if mask < 0 or mask >> n:
            raise ValidationError(f"mask {mask:#x} does not fit in N={n} Majoranas")
        string = tuple(i for i in range(n) if mask >> i & 1)
        return cls(n, {len(string) & 1: _sector_of_strings(n, [string], [amplitude])})

    # -- views --------------------------------------------------------

    @property
    def n_terms(self):
        """Nonzero block entries over the sectors held: at most 2^(N-1) for an
        operator of one fermion parity."""
        return sum(int(np.count_nonzero(b)) for b in self.sectors.values())

    # -- algebra ------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, OperatorVector):
            raise TypeError("expected an OperatorVector")
        if self.n != other.n:
            raise ValidationError(
                f"operators live on N={self.n} and N={other.n}")

    def __add__(self, other):
        self._check_compatible(other)
        out = {s: b + other.sectors[s] if s in other.sectors else b.copy()
               for s, b in self.sectors.items()}
        for s, b in other.sectors.items():
            if s not in out:
                out[s] = b.copy()
        return OperatorVector(self.n, out)

    def __mul__(self, scalar):
        return OperatorVector(self.n, {s: b * scalar for s, b in self.sectors.items()})

    __rmul__ = __mul__

    def iaxpy(self, c, other):
        """self += c * other, in place: the Arnoldi update then reuses this
        operator's blocks instead of allocating new ones."""
        self._check_compatible(other)
        for s, b in other.sectors.items():
            if s in self.sectors:
                self.sectors[s] += b * c
            else:
                self.sectors[s] = b * c

    def inner(self, other):
        """(self|other) = Tr[self^dag other]/D: one vdot per sector both
        operands hold, as strings of different parity are orthogonal."""
        self._check_compatible(other)
        total = sum((complex(np.vdot(b, other.sectors[s]))
                     for s, b in self.sectors.items() if s in other.sectors), 0j)
        return total / _dimension(self.n)


@dataclass(frozen=True, eq=False)
class SykHamiltonian:
    """SYK Hamiltonian H = i^(q/2) sum J_I psi_I over q-subsets I.

    couplings maps ascending q-tuples of Majorana indices to real Gaussian
    samples with variance (q-1)! J^2 / N^(q-1); blocks holds H's two
    diagonal blocks, the even sector (2, D/2, D/2).
    """

    n: int
    q: int
    j: float
    seed: int
    couplings: dict = field(repr=False)
    blocks: np.ndarray = field(repr=False)


def sample_syk(n: int, q: int, j: float, seed: int) -> SykHamiltonian:
    """Draw a Gaussian SYK coupling realization (PCG64, deterministic in seed)
    and build H's blocks from it."""
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
    prefactor = (1j) ** (q // 2) * 2.0 ** (-q / 2)   # psi = gamma/sqrt(2)
    return SykHamiltonian(n=n, q=q, j=j, seed=seed,
                          couplings=dict(zip(subsets, samples)),
                          blocks=_sector_of_strings(n, subsets, prefactor * samples))


def liouvillian_apply(h: SykHamiltonian, o: OperatorVector) -> OperatorVector:
    """[H, O] = H O - O H: H_p X_p - X_p H_(p^s) on block p of sector s.

    Allocates the result and one block-sized buffer for the second product.
    """
    if h.n != o.n:
        raise ValidationError(
            f"Hamiltonian N={h.n} incompatible with operator N={o.n}")
    hb = h.blocks
    buf = np.empty_like(hb[0])
    out = {}
    for s, x in o.sectors.items():
        res = np.matmul(hb, x)   # H_p X_p for both blocks p
        for p in (0, 1):
            np.matmul(x[p], hb[p ^ s], out=buf)
            res[p] -= buf
        out[s] = res
    return OperatorVector(o.n, out)
