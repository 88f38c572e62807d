"""Finite-N Majorana operators as Jordan-Wigner blocks, i^k times Hermitian.

N Majoranas (gamma = sqrt(2) psi, so gamma^2 = 1) act on D = 2^(N/2)
states.  gamma_(2k) = Z..Z X and gamma_(2k+1) = Z..Z Y act on qubit k, the
k-th Kronecker factor (bit N/2 - 1 - k of a state index).  Each gamma_k,
and so each ascending product gamma_S of them (a Majorana string), is a
signed permutation, gamma_S |x> = phase_S(x) |x ^ flip_S>, which is how
operators are built here: without dense Kronecker products.

States are ordered by (p, r): p = popcount(x) mod 2 is the fermion parity
of x and r = x >> 1, so the dropped low bit is p ^ parity(r).  A string of
parity s maps states of parity p to parity p ^ s.  H is even, so it is two
diagonal (D/2) x (D/2) blocks.  H and the jump operators sqrt(mu) psi_k are
Hermitian, so the Lindbladian maps a Hermitian operator to i times a
Hermitian one, and the Arnoldi vectors of psi_0 are i^k A_k with A_k odd
and Hermitian: an OperatorVector holds k mod 4 and A's block from odd to
even states, a quarter of the D x D matrix, and [H, O] is two (D/2)^3
block products.  Operators carry the normalized trace inner product
(A|B) = Tr[A^dag B]/D, under which the 2^N strings are orthonormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np
from numpy.random import default_rng

from .errors import NumericalContractError, ValidationError


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
    between the state (p, r) and the state (p ^ s, c).

    gamma_S |x> = i^e (-1)^parity(x & mask) |x ^ flip>, so the strings of
    one flip f fill the entries (x ^ f, x) with sum_mask c_mask
    (-1)^parity(x & mask): a Walsh-Hadamard transform over the D states,
    one per distinct flip, of the coefficients placed at their masks.
    """
    flips, masks, ys = _gamma_tables(n)
    d = _dimension(n)
    half = d // 2
    x = np.arange(d)
    member = np.zeros((len(strings), n), dtype=bool)
    member[np.repeat(np.arange(len(strings)), [len(s) for s in strings]),
           np.fromiter(chain.from_iterable(strings), dtype=np.int64)] = True
    # in an ascending product each factor acts after those of higher index,
    # which flip only the qubits its mask does not read (or, for gamma_2j
    # before gamma_2j+1, qubit j, which an X does not read)
    flip = np.bitwise_xor.reduce(flips * member, axis=1)
    mask = np.bitwise_xor.reduce(masks * member, axis=1)
    coef = np.asarray(amps, dtype=complex) * np.array([1, 1j, -1, -1j])[
        (ys * member).sum(axis=1) & 3]
    distinct, which = np.unique(flip, return_inverse=True)
    g = np.zeros((distinct.size, d), dtype=complex)
    np.add.at(g, (which, mask), coef)
    for b in range(n // 2):   # butterflies on bit b of x and of mask
        lo, hi = g.reshape(-1, 2, 1 << b).transpose(1, 0, 2)
        lo[...], hi[...] = lo + hi, lo - hi
    # g[f, x] is the entry (x ^ f, x), in block parity(x) ^ s
    rows = distinct[:, None] ^ x
    flat = ((parities(d) ^ (len(strings[0]) & 1)) * half + (rows >> 1)) * half + (x >> 1)
    out = np.zeros(d * half, dtype=complex)
    out[flat.ravel()] = g.ravel()
    return out.reshape(2, half, half)


def _real(c, m):
    """c i^m, from c's parts without rounding; NumericalContractError unless it is real."""
    c = complex(c)
    re, im = ((c.real, c.imag), (-c.imag, c.real), (-c.real, -c.imag), (c.imag, -c.real))[m & 3]
    if im != 0:
        raise NumericalContractError(
            f"{c} i^{m & 3} is not real: the result would not be i^k times a Hermitian operator")
    return re


def _times_i(w, m):
    """w i^m for a real w, built from w alone so that the other part is an exact +0.0."""
    w += 0.0   # -0.0 becomes 0.0
    return (complex(w, 0.0), complex(0.0, w), complex(0.0 - w, 0.0), complex(0.0, 0.0 - w))[m & 3]


class OperatorVector:
    """The odd operator i^k A on N Majoranas, A Hermitian: k mod 4 and A's
    (D/2) x (D/2) block from odd to even states, a; A's other block is a^dag.

    Scalars and sums that would leave this form (a complex coefficient
    that is not i^m times a real one) raise NumericalContractError
    instead of dropping part of the operator.
    """

    __slots__ = ("n", "a", "k")

    def __init__(self, n, a, k=0):
        self.n = int(n)
        self.a = a
        self.k = k & 3

    @classmethod
    def basis_string(cls, n, mask, amplitude=1.0):
        """amplitude * gamma_mask for an odd string (bit i of mask selects
        gamma_i) and an amplitude that is real or imaginary."""
        if mask < 0 or mask >> n:
            raise ValidationError(f"mask {mask:#x} does not fit in N={n} Majoranas")
        string = tuple(i for i in range(n) if mask >> i & 1)
        if len(string) % 2 == 0:
            raise ValidationError(f"gamma_{mask:#x} is even; an OperatorVector is odd")
        # gamma_S^dag = (-1)^(|S|(|S|-1)/2) gamma_S, so gamma_S is i^e times
        # a Hermitian string with e = 1 at |S| = 3 mod 4 and 0 at 1 mod 4
        e = len(string) // 2 & 1
        m = 0 if complex(amplitude).imag == 0 else 1
        amp = _real(amplitude, -m) * (1.0, -1j)[e]
        return cls(n, _sector_of_strings(n, [string], [amp])[0].copy(), e + m)

    @property
    def n_terms(self):
        """Nonzero entries of A's two blocks: at most 2^(N-1)."""
        return 2 * int(np.count_nonzero(self.a))

    def _check_compatible(self, other):
        if not isinstance(other, OperatorVector):
            raise TypeError("expected an OperatorVector")
        if self.n != other.n:
            raise ValidationError(f"operators live on N={self.n} and N={other.n}")

    def __add__(self, other):
        self._check_compatible(other)
        sign = _real(1, other.k - self.k)
        return OperatorVector(self.n, self.a + other.a if sign > 0 else self.a - other.a, self.k)

    def __mul__(self, scalar):
        m = 0 if complex(scalar).imag == 0 else 1
        return OperatorVector(self.n, self.a * _real(scalar, -m), self.k + m)

    __rmul__ = __mul__

    def iaxpy(self, c, other):
        """self += c * other, in place: the Arnoldi update then reuses this
        operator's block instead of allocating a new one."""
        self._check_compatible(other)
        self.a += _real(c, other.k - self.k) * other.a

    def inner(self, other):
        """(self|other) = i^(k' - k) 2 Re vdot(a, a')/D: A and A' are odd, so
        Tr[A A'] sums a^dag a' and its conjugate, one per block."""
        self._check_compatible(other)
        w = np.vdot(self.a.view(float), other.a.view(float))   # Re vdot(a, a')
        return _times_i(2.0 * float(w) / _dimension(self.n), other.k - self.k)


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
    """[H, i^k A] = i^(k+1) B, B = -i [H, A] Hermitian: block -i (H_0 a - a H_1).

    Allocates the result and one block for the second product.
    """
    if h.n != o.n:
        raise ValidationError(f"Hamiltonian N={h.n} incompatible with operator N={o.n}")
    res = h.blocks[0] @ o.a
    res -= o.a @ h.blocks[1]
    res *= -1j
    return OperatorVector(o.n, res, o.k + 1)
