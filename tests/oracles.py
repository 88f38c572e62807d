"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense matrices, brute-force
enumeration, textbook Gram-Schmidt.  None of it imports the modules under
test except for plain data containers.  The last section holds the
analytic and algebraic helpers that only tests call: the inverse moment
transforms, the continuum crossover forms and small operator utilities.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
import scipy.linalg
import sympy as sp

from dsyk.errors import FitError, ValidationError
from dsyk.krylov import TridiagonalCoeffs
from dsyk.majorana import OperatorVector
from dsyk.moments import MomentPolynomial, MomentSequence, _is_zero

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_gammas(n):
    """Jordan-Wigner matrices gamma_0..gamma_(n-1) with gamma^2 = 1.

    gamma_(2k) = Z..Z X I..I, gamma_(2k+1) = Z..Z Y I..I on n/2 qubits.
    """
    assert n % 2 == 0
    out = []
    for j in range(n):
        k = j // 2
        factors = [_Z] * k + [_X if j % 2 == 0 else _Y] + [_I2] * (n // 2 - k - 1)
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        out.append(m)
    return out


def dense_string(gammas, mask):
    """Ascending-ordered product of the gammas selected by the bitmask."""
    dim = gammas[0].shape[0]
    m = np.eye(dim, dtype=complex)
    j = 0
    while mask:
        if mask & 1:
            m = m @ gammas[j]
        mask >>= 1
        j += 1
    return m


def dense_inner(a, b):
    """Normalized trace inner product Tr[A^dag B]/Tr[1]."""
    return complex(np.trace(a.conj().T @ b)) / a.shape[0]


def dense_operator(gammas, terms):
    """Dense matrix of a {mask: amplitude} operator."""
    dim = gammas[0].shape[0]
    m = np.zeros((dim, dim), dtype=complex)
    for mask, val in terms.items():
        m += val * dense_string(gammas, mask)
    return m


def dense_dissipator(gammas, mu, op):
    """Literal Lindblad dissipator with jump operators sqrt(mu) psi_k.

    L_D O = -i sum_k [ -+ L_k^dag O L_k - {L_k^dag L_k, O}/2 ], minus branch
    for fermionic (odd) O; psi = gamma/sqrt(2).
    """
    dim = op.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for g in gammas:
        sandwich = g @ op @ g / 2.0
        anti = op / 2.0  # {psi_k^dag psi_k, O}/2 with psi^dag psi = 1/2
        out += -1j * mu * (-sandwich - anti)
    return out


def dense_dissipator_bosonic(gammas, mu, op):
    for_even = np.zeros_like(op)
    for g in gammas:
        for_even += -1j * mu * (g @ op @ g / 2.0 - op / 2.0)
    return for_even


def brute_linear_extensions(enc):
    """Count vertex labelings where every parent label precedes its children.

    Converts the nested-tuple tree to a parent array and checks all n!
    permutations; only usable for small trees.
    """
    parent = []

    def build(e, p):
        idx = len(parent)
        parent.append(p)
        for c in e:
            build(c, idx)

    build(enc, -1)
    n = len(parent)
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(p == -1 or perm[p] < perm[v] for v, p in enumerate(parent)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# nested-tuple rooted trees: the reference for dsyk.trees' integer-id graph
#
# A tree is encoded as a nested tuple: each vertex is the sorted tuple of its
# children's encodings, so () is a single vertex and ((), ()) is a root with
# two leaf children.  Sorting makes the encoding unique per isomorphism class.


@lru_cache(maxsize=None)
def n_vertices(enc) -> int:
    return 1 + sum(n_vertices(c) for c in enc)


@lru_cache(maxsize=None)
def _subtree_size_product(enc) -> int:
    p = n_vertices(enc)
    for c in enc:
        p *= _subtree_size_product(c)
    return p


def linear_extensions(enc) -> int:
    """Number of vertex orderings in which every vertex precedes its children.

    This is the number of distinct ways the tree can be built by adding one
    arc at a time; by the hook-length formula it equals n!/prod(subtree sizes).
    """
    return factorial(n_vertices(enc)) // _subtree_size_product(enc)


@lru_cache(maxsize=None)
def automorphisms(enc) -> int:
    """Order of the automorphism group of the rooted tree."""
    a = 1
    run = 1
    for i, c in enumerate(enc):
        a *= automorphisms(c)
        if i > 0 and c == enc[i - 1]:
            run += 1
        else:
            run = 1
        a *= run  # accumulates factorial of each equal-children run
    return a


def canonical(children) -> tuple:
    """Canonical encoding from an iterable of child encodings."""
    return tuple(sorted(children))


@lru_cache(maxsize=None)
def attachments(enc, max_children=None):
    """Distinct trees obtained by attaching one new leaf at some vertex.

    With ``max_children`` set, vertices already carrying that many children
    do not accept the new leaf.
    """
    out = set()
    if max_children is None or len(enc) < max_children:
        out.add(canonical(enc + ((),)))
    for i, child in enumerate(enc):
        rest = enc[:i] + enc[i + 1:]
        for sub in attachments(child, max_children):
            out.add(canonical(rest + (sub,)))
    return tuple(sorted(out))


def attach_counts(enc, max_children=None):
    """{S: number of vertices of enc at which one new leaf gives S}."""
    def grown(e):   # one result per vertex, equal children counted apart
        if max_children is None or len(e) < max_children:
            yield canonical(e + ((),))
        for i, child in enumerate(e):
            for sub in grown(child):
                yield canonical(e[:i] + e[i + 1:] + (sub,))

    counts = {}
    for s in grown(enc):
        counts[s] = counts.get(s, 0) + 1
    return counts


@lru_cache(maxsize=None)
def leaf_removals(enc):
    """Map removed-leaf results to leaf multiplicities.

    Returns a tuple of (tree, m) pairs where m counts the individual
    childless vertices of ``enc`` whose removal yields that tree.  The root
    itself is never removed here; a single vertex has no removable leaves.
    """
    counts = {}
    for i, child in enumerate(enc):
        rest = enc[:i] + enc[i + 1:]
        if child == ():
            counts[canonical(rest)] = counts.get(canonical(rest), 0) + 1
        else:
            for sub, m in leaf_removals(child):
                t = canonical(rest + (sub,))
                counts[t] = counts.get(t, 0) + m
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def slot_factor_product(enc, q: int) -> int:
    """Product over vertices of (q-1)(q-2)...(q-c) with c the child count.

    This is the disorder-averaged vertex weight accumulated by filling c of
    the q-1 available Majorana slots of each arc with further arcs.
    """
    p = 1
    for j in range(len(enc)):
        p *= q - 1 - j
    for c in enc:
        p *= slot_factor_product(c, q)
    return p


def enumerate_trees(n: int, max_children=None):
    """All canonical trees with exactly n vertices (n >= 1)."""
    if n == 1:
        return [()]
    out = set()
    for t in enumerate_trees(n - 1, max_children):
        out.update(attachments(t, max_children))
    return sorted(out)


def nested_tree(space, i):
    """The nested-tuple encoding of tree id i of a dsyk TreeSpace (None: no arcs)."""
    if i == 0:
        return None
    return canonical(nested_tree(space, c) for c in space.kids(i))


def tuple_growth_order(space, n):
    """Generation n + 1 of a dsyk TreeSpace in the order a tuple build meets it.

    Replays the build on sorted child-id tuples: each tree of generation n
    in id order, then its sites (a free root slot first, then each distinct
    child ascending), then each site's successors in the space's own edge
    order of the earlier steps.  Returns the new trees' child-id tuples in
    order of first appearance, and for each tree of generation n the tuples
    it grows into, in that order.
    """
    succ = {}
    for g in range(n):
        step = space.successors(g)
        for t, s in zip(step.rows.tolist(), step.cols.tolist()):
            succ.setdefault(space.start[g] + t, []).append(space.start[g + 1] + s)
    new, grown = {}, []
    for t in space.ids(n):
        kids = space.kids(t)
        sites = [0] if space.cap is None or len(kids) < space.cap else []
        out = []
        for c in sites + sorted(set(kids)):
            rest = list(kids)
            if c:
                rest.remove(c)
            out += [tuple(sorted(rest + [s])) for s in succ[c]]
        new.update(dict.fromkeys(out))
        grown.append(out)
    return list(new), grown


def gram_schmidt_hessenberg(mat, v0, n_max):
    """Textbook Arnoldi on a dense matrix; returns (h, basis columns)."""
    v0 = v0 / np.linalg.norm(v0)
    basis = [v0]
    h = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for k in range(1, n_max + 1):
        w = mat @ basis[k - 1]
        for j, v in enumerate(basis):
            h[j, k - 1] = np.vdot(v, w)
            w = w - h[j, k - 1] * v
        for j, v in enumerate(basis):  # second pass
            c = np.vdot(v, w)
            h[j, k - 1] += c
            w = w - c * v
        beta = np.linalg.norm(w)
        if beta < 1e-12:
            return h, np.stack(basis, axis=1)
        h[k, k - 1] = beta
        basis.append(w / beta)
    w = mat @ basis[n_max]
    for j, v in enumerate(basis):
        h[j, n_max] = np.vdot(v, w)
    return h, np.stack(basis, axis=1)


def chain_evolution_expm(a, b, t):
    """Chain amplitudes phi(t) = expm(tM) e_0 with M the chain generator."""
    m = len(a)
    mat = np.zeros((m, m), dtype=complex)
    for i in range(m):
        mat[i, i] = 1j * a[i]
    for i in range(m - 1):
        mat[i, i + 1] = -b[i]
        mat[i + 1, i] = b[i]
    e0 = np.zeros(m, dtype=complex)
    e0[0] = 1.0
    return scipy.linalg.expm(t * mat) @ e0


def direct_k_and_variance(phi):
    """Mean and connected variance of n under weights |phi_n|^2 (normalized)."""
    w = np.abs(np.asarray(phi)) ** 2
    z = w.sum()
    ns = np.arange(len(w))
    k = (ns * w).sum() / z
    var = ((ns - k) ** 2 * w).sum() / z
    return k, var


def meixner_tridiagonal_exact(u, eta, n_max: int) -> TridiagonalCoeffs:
    """Exact-arithmetic Meixner chain coefficients; u, eta as sympy Rationals."""
    u = sp.nsimplify(u, rational=True)
    eta = sp.nsimplify(eta, rational=True)
    a = [sp.I * u * (2 * n + eta) for n in range(n_max + 1)]
    b_sq = [(1 - u ** 2) * n * (n - 1 + eta) for n in range(1, n_max + 1)]
    return TridiagonalCoeffs(a=a, b_sq=b_sq)


def k_complexity_partition(t, p):
    """K(t) via the partition-function route d/dy log sum e^(yn) (eta)_n/n!.

    The sum is (1-e^y)^(-eta) at e^(y0) = (1-u^2)(tanh t/(1+u tanh t))^2,
    giving K = eta e^(y0)/(1 - e^(y0)); must agree with the rational form
    analytic.k_complexity_exact.  p is a MeixnerParams.
    """
    th = np.tanh(np.asarray(t, dtype=float))
    ey = (1.0 - p.u ** 2) * (th / (1.0 + p.u * th)) ** 2
    out = p.eta * ey / (1.0 - ey)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Majorana strings: the sparse string-basis backend, the reference the
# Jordan-Wigner matrix backend is tested against.  A string is a bitmask:
# bit i set means gamma_i appears in the ascending-ordered product.  Under
# (A|B) = Tr[A^dag B]/Tr[1] strings are orthonormal, so an operator is a
# sparse complex vector over bitmasks and all sign bookkeeping is integer
# arithmetic.


class ParityError(ValueError):
    """The literal dissipator needs an operator of one fermion parity."""


def popcount_array(masks):
    """Vectorized popcount of an int64 mask array."""
    x = masks.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def string_multiply(a, b):
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


def string_dagger_phase(mask):
    """Phase of gamma_S^dag relative to gamma_S: (-1)^(s(s-1)/2)."""
    s = mask.bit_count()
    return -1 if (s * (s - 1) // 2) & 1 else 1


def commute_phase(i_mask, m_mask):
    """[gamma_I, gamma_m] = phase * 2 * gamma_(I xor m), or None if they commute.

    Valid for even |I| (Hamiltonian strings): the pair anticommutes iff the
    overlap has odd popcount.
    """
    if (i_mask & m_mask).bit_count() % 2 == 0:
        return None
    phase, _ = string_multiply(i_mask, m_mask)
    return phase


class StringOperator:
    """Sparse operator: complex amplitudes over Majorana-string bitmasks.

    A sorted int64 mask array plus a complex amplitude array; amplitudes
    below the prune threshold are dropped on construction.
    """

    def __init__(self, n, masks, vals, prune=1e-14):
        self.n = n
        self.prune = prune
        masks = np.asarray(masks, dtype=np.int64)
        vals = np.asarray(vals, dtype=complex)
        if masks.size:
            keep = np.abs(vals) > prune
            masks, vals = masks[keep], vals[keep]
            order = np.argsort(masks)
            masks, vals = masks[order], vals[order]
        self.masks = masks
        self.vals = vals

    @classmethod
    def from_terms(cls, n, terms):
        return cls(n, list(terms), list(terms.values()))

    @classmethod
    def basis_string(cls, n, mask, amplitude=1.0):
        return cls(n, [mask], [amplitude])

    @property
    def terms(self):
        return {int(m): complex(v) for m, v in zip(self.masks, self.vals)}

    def sizes(self):
        """Popcounts (operator sizes) of the support strings."""
        return popcount_array(self.masks)

    def __add__(self, other):
        masks = np.concatenate([self.masks, other.masks])
        vals = np.concatenate([self.vals, other.vals])
        if masks.size:
            u, inv = np.unique(masks, return_inverse=True)
            acc = np.zeros(u.size, dtype=complex)
            np.add.at(acc, inv, vals)
            masks, vals = u, acc
        return StringOperator(self.n, masks, vals, min(self.prune, other.prune))

    def __mul__(self, scalar):
        return StringOperator(self.n, self.masks, self.vals * scalar, self.prune)

    __rmul__ = __mul__

    def inner(self, other):
        """(self|other) = sum over common strings of conj(a) * b."""
        _, i1, i2 = np.intersect1d(self.masks, other.masks,
                                   assume_unique=True, return_indices=True)
        return complex(np.sum(np.conj(self.vals[i1]) * other.vals[i2]))

    def dagger(self):
        phases = np.array([string_dagger_phase(int(m)) for m in self.masks], dtype=float)
        return StringOperator(self.n, self.masks, phases * np.conj(self.vals), self.prune)

    def parity_split(self):
        """(even-size part, odd-size part)."""
        odd = (self.sizes() & 1).astype(bool)
        return (StringOperator(self.n, self.masks[~odd], self.vals[~odd], self.prune),
                StringOperator(self.n, self.masks[odd], self.vals[odd], self.prune))


def string_hamiltonian(h):
    """H = i^(q/2) 2^(-q/2) sum_I J_I gamma_I as a StringOperator, from h.couplings."""
    prefactor = (1j) ** (h.q // 2) * 2.0 ** (-h.q / 2)
    return StringOperator.from_terms(
        h.n, {sum(1 << i for i in idx): prefactor * val for idx, val in h.couplings.items()})


def string_liouvillian_apply(h, o):
    """[H, O] on the string basis, one Hamiltonian string at a time.

    gamma_I (|I| even) anticommutes with exactly the strings m of odd
    overlap, where [gamma_I, gamma_m] = 2 gamma_I gamma_m; everything else
    cancels.  The product's sign against m is (-1)^popcount(m & D), where
    bit j of D is set when gamma_I picks up a minus sign passing gamma_j.
    """
    x = np.arange(1 << o.n, dtype=np.int64)
    parity = (popcount_array(x) & 1).astype(np.uint8)
    acc = np.zeros(1 << o.n, dtype=complex)
    for i_mask, amp in string_hamiltonian(h).terms.items():
        d_mask = sum(1 << j for j in range(o.n) if (i_mask >> (j + 1)).bit_count() & 1)
        sel = parity[o.masks & i_mask].astype(bool)
        msel = o.masks[sel]
        sign = 1.0 - 2.0 * parity[msel & d_mask]
        acc[msel ^ i_mask] += (2.0 * amp) * (sign * o.vals[sel])
    support = np.nonzero(acc)[0]
    return StringOperator(o.n, support, acc[support], o.prune)


def string_lindbladian_apply(model, o):
    """[H, O] plus the diagonal dissipator i mu s on each size-s string."""
    diss = StringOperator(o.n, o.masks, o.vals * (1j * model.mu * o.sizes()), o.prune)
    return string_liouvillian_apply(model.hamiltonian, o) + diss


def dissipator_oracle(model, o):
    """Literal jump-operator dissipator, parity branch chosen explicitly.

    L_D O = -i sum_k [ -+ L_k^dag O L_k - (1/2){L_k^dag L_k, O} ] with the
    minus branch when O is fermionic (odd strings).  L_k = sqrt(mu/2) gamma_k,
    so L_k^dag O L_k = (mu/2) gamma_k O gamma_k and the anticommutator part
    contributes mu*N/2 per term.
    """
    sizes = o.sizes()
    if sizes.size == 0:
        return StringOperator(o.n, [], [], o.prune)
    parities = set(int(s) & 1 for s in sizes)
    if len(parities) > 1:
        raise ParityError("dissipator sign rule needs a parity-homogeneous operator; "
                          "split even/odd parts first")
    branch = -1.0 if parities.pop() == 1 else 1.0
    n, mu = o.n, model.mu
    acc = {}
    for mask, val in zip(o.masks, o.vals):
        mask = int(mask)
        for k in range(n):
            p1, m1 = string_multiply(1 << k, mask)
            p2, m2 = string_multiply(m1, 1 << k)
            acc[m2] = acc.get(m2, 0.0) - 1j * branch * (mu / 2.0) * p1 * p2 * val
        acc[mask] = acc.get(mask, 0.0) + 1j * (mu * n / 2.0) * val
    return StringOperator.from_terms(o.n, acc)


def string_terms(gammas, matrix, tol=1e-12):
    """{mask: amplitude} of a matrix on the strings, by trace overlaps with dense strings."""
    out = {}
    for mask in range(1 << len(gammas)):
        c = dense_inner(dense_string(gammas, mask), matrix)
        if abs(c) > tol:
            out[mask] = c
    return out


# ---------------------------------------------------------------------------
# helpers only tests call


def zero_operator(n):
    """The zero operator on N Majoranas (N validated like any constructor)."""
    return OperatorVector.from_terms(n, {})


def normalized(o):
    nrm = o.norm()
    if nrm == 0.0:
        raise ValidationError("cannot normalize the zero operator")
    return o * (1.0 / nrm)


def dagger(o):
    return OperatorVector(o.n, o.matrix.conj().T)


def has_parity_of(poly, n: int) -> bool:
    """True when only powers u^n, u^(n-2), ... appear in a MomentPolynomial."""
    return all(c == 0 for k, c in enumerate(poly.coeffs) if (k - n) % 2)


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    return tuple(c + q[i] if i < len(q) else c for i, c in enumerate(p))


def _pscale(p, s):
    return tuple(c * s for c in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def series_moments_from_g(n_max: int):
    """The moment polynomials mt_0..mt_n_max from Fraction Taylor series.

    f = e^(g/2) obeys f_tt = alpha^2 f - 2 f^3 with alpha^2 = 1 - u^2/4.  In
    x = it, where f_xx = -f_tt, f(0) = 1 and f_x(0) = u/2, so the ordinary
    x-series coefficients r_k of f are Fraction polynomials in u.  Then
    g = 2 log f through h = f_x/f, and mt_n = n! g_n / 2.
    """
    alpha_sq = (Fraction(1), Fraction(0), Fraction(-1, 4))
    r = [(Fraction(1),), (Fraction(0), Fraction(1, 2))]
    f2, f3 = [], []
    for k in range(n_max + 1):
        if k >= 2:
            num = _padd(_pmul(alpha_sq, r[k - 2]), _pscale(f3[k - 2], Fraction(-2)))
            r.append(_pscale(num, Fraction(-1, (k - 1) * k)))
        acc2 = ()
        for i in range(k + 1):
            acc2 = _padd(acc2, _pmul(r[i], r[k - i]))
        f2.append(acc2)
        acc3 = ()
        for i in range(k + 1):
            acc3 = _padd(acc3, _pmul(f2[i], r[k - i]))
        f3.append(acc3)
    h = []
    for k in range(n_max):
        hk = _pscale(r[k + 1], Fraction(k + 1))
        for i in range(k):
            hk = _padd(hk, _pscale(_pmul(h[i], r[k - i]), Fraction(-1)))
        h.append(hk)
    out = [MomentPolynomial((Fraction(1),))]
    for n in range(1, n_max + 1):
        mt = list(_pscale(_pscale(h[n - 1], Fraction(2, n)), Fraction(factorial(n), 2)))
        while mt and mt[-1] == 0:
            mt.pop()
        out.append(MomentPolynomial(tuple(mt)))
    return out


def _series_mul(p, q, order):
    out = [0] * (order + 1)
    for i, av in enumerate(p):
        if i > order or _is_zero(av):
            continue
        for j, bv in enumerate(q):
            if i + j > order:
                break
            out[i + j] = out[i + j] + av * bv
    return out


def _series_inverse(d, order):
    d0 = d[0]
    if _is_zero(d0):
        raise ValidationError("series has no inverse (zero constant term)")
    # keep integer arithmetic exact: avoid / when the constant term is unit
    unit = isinstance(d0, int) and d0 == 1
    inv = [1 if unit else 1 / d0] + [0] * order
    for n in range(1, order + 1):
        s = 0
        for k in range(1, min(n, len(d) - 1) + 1):
            s = s + d[k] * inv[n - k]
        inv[n] = -s if unit else -s / d0
    return inv


def tridiagonal_to_series(c: TridiagonalCoeffs, n_max: int) -> MomentSequence:
    """Power-series moments of the continued fraction of a Jacobi chain.

    Evaluates 1/(1 - a_0 z - b_1^2 z^2/(1 - a_1 z - ...)) as a z-series
    to order n_max, truncating the fraction at a depth that cannot affect
    the requested orders (level k first contributes at order 2k).
    """
    depth = n_max // 2
    if len(c.a) < depth + 1 or len(c.b_sq) < depth:
        raise ValidationError(
            f"need a_0..a_{depth} and b_1^2..b_{depth}^2 for order {n_max}")
    tail = [1] + [0] * n_max
    for k in range(depth, -1, -1):
        denom = [1] + [0] * n_max
        denom[1] = denom[1] - c.a[k]
        if k < depth:
            shifted = _series_mul(tail, [c.b_sq[k]], n_max)
            for i, v in enumerate(shifted):
                if i + 2 <= n_max:
                    denom[i + 2] = denom[i + 2] - v
        tail = _series_inverse(denom, n_max)
    return MomentSequence(values=tail)


def jacobi_moments(c: TridiagonalCoeffs, n_max: int):
    """Moments m_n = (e_0, J^n e_0) of the Jacobi chain, exact arithmetic.

    Uses the similarity-transformed matrix with unit subdiagonal and b^2
    superdiagonal, so only a_n and b_n^2 enter (no square roots).  Needs
    coefficients up to index n_max // 2.
    """
    top = n_max // 2
    if len(c.a) < top + 1 or len(c.b_sq) < top:
        raise ValidationError(f"need coefficients up to index {top}")
    out = [1]
    v = {0: 1}
    for _ in range(n_max):
        new = {}
        for i, x in v.items():
            if _is_zero(x):
                continue
            if i + 1 <= top:
                new[i + 1] = new.get(i + 1, 0) + x
            new[i] = new.get(i, 0) + c.a[i] * x
            if i > 0:
                new[i - 1] = new.get(i - 1, 0) + c.b_sq[i - 1] * x
        v = new
        out.append(v.get(0, 0))
    return out


def g_function(t, j_script=1.0, mu_tilde=0.0):
    """Autocorrelation exponent g(t) = log[alpha^2/(J^2 cosh^2(alpha t + gamma))].

    alpha = sqrt((mu_tilde/2)^2 + J^2) and gamma = arcsinh(mu_tilde/(2J))
    make g(0) = 0.  Vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    alpha = math.sqrt((mu_tilde / 2.0) ** 2 + j_script ** 2)
    gamma = math.asinh(mu_tilde / (2.0 * j_script))
    out = np.log(alpha ** 2 / (j_script ** 2 * np.cosh(alpha * t + gamma) ** 2))
    return out if out.shape else float(out)


def tail_decay_rate(u: float) -> float:
    """Stationary tail decay: |phi_n| ~ exp(-n ln((1+u)/sqrt(1-u^2))) * n^((eta-1)/2)."""
    return math.log((1.0 + u) / math.sqrt(1.0 - u ** 2))


def stationary_tail_fit(s, n_window, eta=None) -> float:
    """Exponential decay length xi of |phi_n| of a ChainState over n in [n_lo, n_hi].

    With eta supplied, the stationary n^((eta-1)/2) power-law prefactor is
    divided out first.  The tail must be positive and strictly decreasing.
    """
    n_lo, n_hi = n_window
    if not 0 <= n_lo < n_hi <= s.n_trunc:
        raise FitError(f"window {n_window} outside chain range 0..{s.n_trunc}")
    ns = np.arange(n_lo, n_hi + 1)
    y = np.abs(s.phi[n_lo: n_hi + 1])
    if np.any(y <= 0.0):
        raise FitError("tail contains zero amplitudes")
    if eta is not None:
        y = y / ns.astype(float) ** ((eta - 1.0) / 2.0)
    if np.any(np.diff(y) >= 0.0):
        raise FitError("tail is not strictly decreasing; not in the stationary regime")
    slope = np.polyfit(ns, np.log(y), 1)[0]
    return -1.0 / float(slope)


@dataclass(frozen=True)
class ContinuumParams:
    """Continuum growth rate alpha and dissipation scale chi*mu."""

    alpha: float
    chi_mu: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValidationError(f"alpha={self.alpha} must be positive")
        if self.chi_mu < 0.0:
            raise ValidationError(f"chi_mu={self.chi_mu} must be >= 0")

    @property
    def xi(self) -> float:
        """Stationary localization length 2 alpha/(chi mu)."""
        if self.chi_mu == 0.0:
            return math.inf
        return 2.0 * self.alpha / self.chi_mu

    @property
    def t_star(self) -> float:
        """Saturation time ln(2 alpha/(chi mu)) / (2 alpha)."""
        if self.chi_mu == 0.0:
            raise ValidationError("saturation time undefined at chi_mu = 0")
        return math.log(2.0 * self.alpha / self.chi_mu) / (2.0 * self.alpha)


def continuum_prediction(p: ContinuumParams, t):
    """Reference crossover curve: e^(2 alpha t) capped at xi.

    Asymptotic ("~") relation only; used for order-of-magnitude bands.
    """
    t = np.asarray(t, dtype=float)
    growth = np.exp(2.0 * p.alpha * t)
    out = growth if p.chi_mu == 0.0 else np.minimum(growth, p.xi)
    return out if out.shape else float(out)
