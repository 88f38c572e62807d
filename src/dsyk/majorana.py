"""Exact operator algebra on Majorana strings at finite N.

Strings are bitmasks: bit i set means the normalized Majorana gamma_i
(gamma = sqrt(2) psi, so gamma^2 = 1) appears in the ascending-ordered
product.  Under (A|B) = Tr[A^dag B]/Tr[1] these strings are orthonormal,
so operators are sparse complex vectors over bitmasks and all sign
bookkeeping is integer arithmetic.

The commutator with a q-body SYK Hamiltonian is the hot path: it runs
per Hamiltonian term on the whole support at once, using precomputed
parity lookup tables and a dense accumulator over the 2^N mask space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import IncompatibleOperatorsError, ValidationError

DEFAULT_PRUNE = 1e-14

_PARITY_TABLES = {}


def _parity_table(n):
    """uint8 table of popcount parity for all masks below 2^n."""
    t = _PARITY_TABLES.get(n)
    if t is None:
        x = np.arange(1 << n, dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            x ^= x >> shift
        t = (x & 1).astype(np.uint8)
        _PARITY_TABLES[n] = t
    return t


def popcount_array(masks):
    """Vectorized popcount of an int64 mask array."""
    x = masks.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def string_multiply(a: int, b: int):
    """Product gamma_A gamma_B = phase * gamma_(A xor B), phase = +-1.

    The phase is the parity of transpositions needed to sort the
    concatenated index sequence and cancel repeated indices: each index j
    of B commutes past the members of A above j.
    """
    count = 0
    bb = b
    while bb:
        j = (bb & -bb).bit_length() - 1
        count += (a >> (j + 1)).bit_count()
        bb &= bb - 1
    return (-1 if count & 1 else 1), a ^ b


def string_dagger_phase(mask: int) -> int:
    """Phase of gamma_S^dag relative to gamma_S: (-1)^(s(s-1)/2)."""
    s = mask.bit_count()
    return -1 if (s * (s - 1) // 2) & 1 else 1


def commute_phase(i_mask: int, m_mask: int):
    """[gamma_I, gamma_m] = phase * 2 * gamma_(I xor m), or None if they commute.

    Valid for even |I| (Hamiltonian strings): the pair anticommutes iff the
    overlap has odd popcount.
    """
    if (i_mask & m_mask).bit_count() % 2 == 0:
        return None
    phase, _ = string_multiply(i_mask, m_mask)
    return phase


class OperatorVector:
    """Sparse operator: complex amplitudes over Majorana-string bitmasks.

    Internally a sorted int64 mask array plus a complex amplitude array;
    amplitudes below the prune threshold are dropped on construction.
    """

    __slots__ = ("n", "_masks", "_vals", "prune")

    def __init__(self, n, masks, vals, prune=DEFAULT_PRUNE):
        self.n = int(n)
        self.prune = prune
        masks = np.asarray(masks, dtype=np.int64)
        vals = np.asarray(vals, dtype=complex)
        if masks.size:
            keep = np.abs(vals) > prune
            masks, vals = masks[keep], vals[keep]
            order = np.argsort(masks)
            masks, vals = masks[order], vals[order]
        self._masks = masks
        self._vals = vals

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n, prune=DEFAULT_PRUNE):
        return cls(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=complex), prune)

    @classmethod
    def basis_string(cls, n, mask, amplitude=1.0, prune=DEFAULT_PRUNE):
        if mask >> n:
            raise ValidationError(f"mask {mask:#x} does not fit in N={n} Majoranas")
        return cls(n, [mask], [amplitude], prune)

    @classmethod
    def from_terms(cls, n, terms, prune=DEFAULT_PRUNE):
        if not terms:
            return cls.zero(n, prune)
        masks = list(terms.keys())
        vals = [terms[m] for m in masks]
        return cls(n, masks, vals, prune)

    # -- views --------------------------------------------------------

    @property
    def terms(self):
        return {int(m): complex(v) for m, v in zip(self._masks, self._vals)}

    @property
    def n_terms(self):
        return self._masks.size

    def sizes(self):
        """Popcounts (operator sizes) of the support strings."""
        return popcount_array(self._masks)

    # -- algebra ------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, OperatorVector):
            raise TypeError("expected an OperatorVector")
        if self.n != other.n:
            raise IncompatibleOperatorsError(
                f"operators live on N={self.n} and N={other.n}")

    def __add__(self, other):
        self._check_compatible(other)
        masks = np.concatenate([self._masks, other._masks])
        vals = np.concatenate([self._vals, other._vals])
        if masks.size:
            u, inv = np.unique(masks, return_inverse=True)
            acc = np.zeros(u.size, dtype=complex)
            np.add.at(acc, inv, vals)
            masks, vals = u, acc
        return OperatorVector(self.n, masks, vals, min(self.prune, other.prune))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return OperatorVector(self.n, self._masks, self._vals * scalar, self.prune)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def inner(self, other):
        """(self|other) = sum over common strings of conj(a) * b."""
        self._check_compatible(other)
        _, i1, i2 = np.intersect1d(self._masks, other._masks,
                                   assume_unique=True, return_indices=True)
        return complex(np.sum(np.conj(self._vals[i1]) * other._vals[i2]))

    def norm(self):
        return float(np.linalg.norm(self._vals))

    def normalized(self):
        nrm = self.norm()
        if nrm == 0.0:
            raise ValidationError("cannot normalize the zero operator")
        return self * (1.0 / nrm)

    def dagger(self):
        phases = np.array([string_dagger_phase(int(m)) for m in self._masks],
                          dtype=float)
        return OperatorVector(self.n, self._masks,
                              phases * np.conj(self._vals), self.prune)

    def parity_split(self):
        """(even-size part, odd-size part)."""
        odd = (self.sizes() & 1).astype(bool)
        even_part = OperatorVector(self.n, self._masks[~odd], self._vals[~odd],
                                   self.prune)
        odd_part = OperatorVector(self.n, self._masks[odd], self._vals[odd],
                                  self.prune)
        return even_part, odd_part


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

    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def j_script_sq(self) -> float:
        """Rescaled coupling 2^(1-q) q J^2."""
        return 2.0 ** (1 - self.q) * self.q * self.j ** 2

    def _term_arrays(self):
        """Per-term (string mask, sign-table mask, gamma-basis amplitude).

        The sign-table mask D has bit j set when gamma_I picks up a minus
        sign commuting past gamma_j, so the product phase against any string
        m is (-1)^popcount(m & D).
        """
        cached = self._cache.get("terms")
        if cached is None:
            prefactor = (1j) ** (self.q // 2) * 2.0 ** (-self.q / 2)
            cached = []
            for idx, val in self.couplings.items():
                i_mask = 0
                for i in idx:
                    i_mask |= 1 << i
                d_mask = 0
                for jbit in range(self.n):
                    if ((i_mask >> (jbit + 1)).bit_count()) & 1:
                        d_mask |= 1 << jbit
                cached.append((i_mask, d_mask, prefactor * val))
            self._cache["terms"] = cached
        return cached

    def to_operator(self, prune=DEFAULT_PRUNE) -> OperatorVector:
        masks = []
        vals = []
        for i_mask, _, amp in self._term_arrays():
            masks.append(i_mask)
            vals.append(amp)
        return OperatorVector(self.n, masks, vals, prune)


def sample_syk(n: int, q: int, j: float, seed: int) -> SykHamiltonian:
    """Draw a Gaussian SYK coupling realization (PCG64, deterministic in seed)."""
    if n % 2 or q % 2 or n <= 0 or q <= 0:
        raise ValidationError(f"N and q must be even positive integers, got N={n}, q={q}")
    if q > n:
        raise ValidationError(f"q={q} exceeds N={n}")
    sigma = math.sqrt(math.factorial(q - 1) * j ** 2 / n ** (q - 1))
    rng = np.random.default_rng(seed)
    subsets = list(combinations(range(n), q))
    samples = rng.normal(0.0, sigma, size=len(subsets))
    return SykHamiltonian(n=n, q=q, j=j, seed=seed,
                          couplings=dict(zip(subsets, samples)))


def liouvillian_apply(h: SykHamiltonian, o: OperatorVector,
                      prune=None) -> OperatorVector:
    """[H, O] expanded on the string basis.

    Each Hamiltonian string gamma_I anticommutes with exactly the support
    strings of odd overlap, where [gamma_I, gamma_m] = 2 gamma_I gamma_m;
    everything else cancels identically.
    """
    if h.n != o.n:
        raise IncompatibleOperatorsError(
            f"Hamiltonian N={h.n} incompatible with operator N={o.n}")
    if prune is None:
        prune = o.prune
    masks, vals = o._masks, o._vals
    if masks.size == 0:
        return OperatorVector.zero(o.n, prune)
    par = _parity_table(o.n)
    acc = np.zeros(1 << o.n, dtype=complex)
    for i_mask, d_mask, amp in h._term_arrays():
        sel = par[masks & i_mask].astype(bool)
        if not sel.any():
            continue
        msel = masks[sel]
        sign = 1.0 - 2.0 * par[msel & d_mask]
        acc[msel ^ i_mask] += (2.0 * amp) * (sign * vals[sel])
    support = np.nonzero(acc)[0]
    return OperatorVector(o.n, support, acc[support], prune)
