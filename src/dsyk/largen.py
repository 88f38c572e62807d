"""Large-N diagrammatic operator calculus on rooted trees.

A Krylov-space operator at large N is a weighted sum over canonical rooted
trees (open melon diagrams); L_+ attaches an arc, L_- (its adjoint) removes
a childless arc.  The disorder-averaged norm of a single n-arc diagram is

    G(T) = w^n * slot_product(T, q) / |Aut(T)|,   w = 2 J_script^2 / q,

where slot_product collects the (q-1)(q-2)... factors from filling each
arc's q-1 Majorana slots.  In the large-q engine the slot factors cancel
against 1/q per arc, leaving G(T) = (2 J_script^2)^n / |Aut(T)| with no
child-count cap; transitions back to the bare fermion carry weight 2/q and
drop out.  With J_script^2 = 1/2 the large-q identities are exact rational
statements and are computed as such.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NormalizationError, ValidationError
from .krylov import TridiagonalCoeffs, lanczos
from .trees import TreeSpace


def _default_j_sq(q):
    # J = 1 convention: J_script^2 = 2^(1-q) q J^2; equals 1/2 in both the
    # q = 4 and the strict large-q engines.
    if q is None:
        return Fraction(1, 2)
    return Fraction(q, 2 ** (q - 1))


def _conj(v):
    return v.conjugate() if isinstance(v, complex) else v


def _abs_sq(v):
    return abs(v) ** 2 if isinstance(v, complex) else v * v


class DiagramSpace:
    """Tree registry plus the physical weights G(T) for a given (q, J)."""

    def __init__(self, q=None, j_sq=None, exact=None, max_trees=2_000_000):
        if q is not None and (q % 2 or q < 4):
            raise ValidationError(f"q={q} must be an even integer >= 4 (or None)")
        self.q = q
        if exact is None:
            exact = q is None
        self.exact = exact
        if j_sq is None:
            j_sq = _default_j_sq(q)
        self.j_sq = Fraction(j_sq) if exact else float(j_sq)
        if q is None:
            self.arc_weight = 2 * self.j_sq
        else:
            self.arc_weight = 2 * self.j_sq / q
        self.trees = TreeSpace(q=q, max_trees=max_trees)
        one = Fraction(1) if exact else 1.0
        self._g = {TreeSpace.VACUUM: one}

    def weight(self, i):
        """Disorder-averaged squared norm G of the basis diagram with id i."""
        g = self._g.get(i)
        if g is None:
            t = self.trees
            n = t.n_arcs(i)
            slots = t.slot_product(i, self.q) if self.q is not None else 1
            if self.exact:
                g = self.arc_weight ** n * Fraction(slots, t.aut(i))
            else:
                g = self.arc_weight ** n * slots / t.aut(i)
            self._g[i] = g
        return g

    def _one(self):
        return Fraction(1) if self.exact else 1.0

    def vacuum_state(self):
        return DiagramState(self, {TreeSpace.VACUUM: self._one()})

    def root_state(self):
        return DiagramState(self, {TreeSpace.ROOT: self._one()})


class DiagramState:
    """Sparse weighted sum of canonical trees in a DiagramSpace.

    Supports the vector interface of the Krylov builders; the inner product
    carries the diagram norms G(T).
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms):
        self.space = space
        self.terms = terms

    def tree_terms(self):
        """Coefficients keyed by canonical tree encoding (None = bare fermion)."""
        enc = self.space.trees.enc_of
        return {enc(i): c for i, c in self.terms.items()}

    def generations(self):
        return sorted({self.space.trees.n_arcs(i) for i in self.terms})

    def _check_space(self, other):
        if not isinstance(other, DiagramState) or other.space is not self.space:
            raise ValidationError("diagram states must live in the same space")

    def __add__(self, other):
        self._check_space(other)
        out = dict(self.terms)
        for i, c in other.terms.items():
            v = out.get(i, 0) + c
            if v:
                out[i] = v
            elif i in out:
                del out[i]
        return DiagramState(self.space, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if not scalar:
            return DiagramState(self.space, {})
        return DiagramState(self.space, {i: c * scalar for i, c in self.terms.items()})

    __rmul__ = __mul__

    def iaxpy(self, c, other):
        """In-place self += c * other (hot path for reorthogonalization)."""
        self._check_space(other)
        if not c:
            return
        out = self.terms
        for i, x in other.terms.items():
            v = out.get(i, 0) + c * x
            if v:
                out[i] = v
            elif i in out:
                del out[i]

    def inner(self, other):
        """G-weighted inner product, conjugate-linear in self."""
        self._check_space(other)
        w = self.space.weight
        acc = 0
        if len(self.terms) <= len(other.terms):
            for i, c in self.terms.items():
                d = other.terms.get(i)
                if d is not None:
                    acc += _conj(c) * d * w(i)
        else:
            for i, d in other.terms.items():
                c = self.terms.get(i)
                if c is not None:
                    acc += _conj(c) * d * w(i)
        return acc

    def norm_sq(self):
        w = self.space.weight
        acc = 0
        for i, c in self.terms.items():
            acc += _abs_sq(c) * w(i)
        return acc

    def norm(self):
        return math.sqrt(float(self.norm_sq()))


def l_plus_apply(state: DiagramState) -> DiagramState:
    """Attach one new leaf at every admissible vertex of every diagram.

    The coefficient of a result tree S collects m(S -> T) x_T over
    predecessors T, where m counts the individual leaves of S whose removal
    gives T; starting from the bare fermion and iterating, each tree's
    coefficient is exactly its number of arc-by-arc building orders.
    """
    space = state.space
    t = space.trees
    if space.q is None and len(state.generations()) > 1:
        raise ValidationError("large-q diagram states must be generation-homogeneous")
    out = {}
    for i in state.terms:
        for s_id in t.successors(i):
            if s_id in out:
                continue
            acc = 0
            for p_id, mult in t.predecessors(s_id):
                xp = state.terms.get(p_id)
                if xp is not None:
                    acc += mult * xp
            if acc:
                out[s_id] = acc
    return DiagramState(space, out)


def l_minus_apply(state: DiagramState) -> DiagramState:
    """Adjoint of l_plus under the G-weighted inner product.

    Matrix element from S down to T is m(S -> T) G(S)/G(T).  In the strict
    large-q engine the transition from the single arc back to the bare
    fermion carries the vanishing weight 2/q and is dropped.
    """
    space = state.space
    t = space.trees
    w = space.weight
    out = {}
    for i, y in state.terms.items():
        gi = w(i)
        for p_id, mult in t.predecessors(i):
            if p_id == TreeSpace.VACUUM and space.q is None:
                continue
            v = out.get(p_id, 0) + mult * (gi / w(p_id)) * y
            if v:
                out[p_id] = v
            elif p_id in out:
                del out[p_id]
    return DiagramState(space, out)


def hamiltonian_apply(state: DiagramState) -> DiagramState:
    """Closed-system large-N Liouvillian L_H = L_+ + L_-."""
    return l_plus_apply(state) + l_minus_apply(state)


def make_dissipative_apply(space: DiagramSpace, mu: float):
    """L = L_+ + L_- + i mu s diagonal, s = (q-2) n_arcs + 1.

    Uses the concentrated operator size of each tree generation, which is
    where the closed-form dissipator applies at large N.
    """
    if space.q is None:
        raise ValidationError("dissipative diagram evolution needs finite q")
    t = space.trees
    qm2 = space.q - 2

    def apply(state):
        diag = {i: 1j * mu * (qm2 * t.n_arcs(i) + 1) * c
                for i, c in state.terms.items()}
        return hamiltonian_apply(state) + DiagramState(space, diag)

    return apply


def lanczos_large_n(q_mode, n_max, j_sq=None, max_trees=2_000_000):
    """Large-N Lanczos; returns (coeffs, basis states), basis[n] in generation n.

    q_mode None runs the strict large-q engine in exact rational
    arithmetic from the single arc: b_1 = J_script sqrt(2/q) vanishes, so
    the bare fermion decouples and is prepended with exact zeros for a_0
    and b_1^2, and b_n^2 = 2 j_sq n(n-1)/2 for n >= 2 come out as exact
    Fractions (basis states are the unnormalized monic vectors).  Finite q
    runs the same recurrence in floats from the bare fermion, so b_1
    appears as the first coefficient, and the basis states are normalized.
    """
    exact = q_mode is None
    space = DiagramSpace(q=q_mode, j_sq=j_sq, exact=exact, max_trees=max_trees)
    if exact:
        coeffs, basis = lanczos(hamiltonian_apply, space.root_state(),
                                max(n_max, 1) - 1, last_diagonal=False)
        coeffs = TridiagonalCoeffs(a=[Fraction(0)] + coeffs.a, b=[0.0] + coeffs.b,
                                   b_sq=[Fraction(0)] + coeffs.b_sq)
        return coeffs, [space.vacuum_state()] + basis
    coeffs, basis = lanczos(hamiltonian_apply, space.vacuum_state(), n_max,
                            last_diagonal=False)
    for k, v in enumerate(basis):
        basis[k] = v * (1.0 / v.norm())
    return coeffs, basis


def size_distribution(state: DiagramState, q=None, normalize=False):
    """Operator-size weights of a Krylov basis diagram state.

    Returns (P, mean, std) with P mapping s = (q-2) n_arcs + 1 to
    probability.  q defaults to the space's q and must be supplied for
    large-q states (where it only labels the sizes).
    """
    space = state.space
    if q is None:
        q = space.q
    if q is None:
        raise ValidationError("supply q to label sizes of a large-q state")
    w = space.weight
    t = space.trees
    by_size = {}
    total = 0
    for i, c in state.terms.items():
        p = _abs_sq(c) * w(i)
        s = (q - 2) * t.n_arcs(i) + 1
        by_size[s] = by_size.get(s, 0) + p
        total += p
    if not by_size:
        raise ValidationError("empty diagram state")
    if not normalize and abs(float(total) - 1.0) > 1e-6:
        raise NormalizationError(
            f"state norm^2 = {float(total)!r}; pass normalize=True for raw states")
    probs = {s: p / total for s, p in by_size.items()}
    mean = sum(s * p for s, p in probs.items())
    var = sum((s - mean) ** 2 * p for s, p in probs.items())
    return probs, float(mean), math.sqrt(float(var))
