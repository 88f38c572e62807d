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

A state holds one 1-D array per generation, indexed by position within
that generation's contiguous tree ids: float64 (complex128 once a complex
scalar enters) in float spaces, and objects (ints and Fractions) in exact
spaces, so exact runs stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NormalizationError, ValidationError
from .krylov import TridiagonalCoeffs, lanczos
from .trees import TreeSpace


def _default_j_sq(q):
    # J = 1 convention: J_script^2 = 2^(1-q) q J^2; equals 1/2 in both the
    # q = 4 and the strict large-q engines.
    if q is None:
        return Fraction(1, 2)
    return Fraction(q, 2 ** (q - 1))


def _wdot(x, y, g):
    """sum conj(x) g y over one generation."""
    return np.vdot(x, g * y)


class DiagramSpace:
    """Tree graph plus the physical weights G(T) for a given (q, J)."""

    def __init__(self, q=None, j_sq=None, exact=None):
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
        self.trees = TreeSpace(q=q)
        self._g = []

    def weights(self, n):
        """G of every tree in generation n, as one array."""
        t = self.trees
        while len(self._g) <= n:
            k = len(self._g)
            ids = t.ids(k)
            slot, aut = t.slot[ids.start:ids.stop], t.aut[ids.start:ids.stop]
            wk = self.arc_weight ** k
            if self.exact:
                g = np.array([wk * Fraction(s, a) for s, a in zip(slot, aut)], dtype=object)
            else:
                g = wk * np.array(slot, dtype=float) / np.array(aut, dtype=float)
            self._g.append(g)
        return self._g[n]

    def state(self, terms):
        """The state with coefficients {tree id: c}."""
        t = self.trees
        gens = {}
        for i, c in terms.items():
            n = t.generation_of(i)
            if n not in gens:
                gens[n] = np.zeros(t.count(n), dtype=object if self.exact else float)
            gens[n][i - t.start[n]] = c
        return DiagramState(self, gens)

    def _one(self):
        return Fraction(1) if self.exact else 1.0

    def vacuum_state(self):
        return self.state({TreeSpace.VACUUM: self._one()})

    def root_state(self):
        return self.state({TreeSpace.ROOT: self._one()})


class DiagramState:
    """Weighted sum of canonical trees: {generation: coefficient array}.

    Supports the vector interface of the Krylov builders; the inner product
    carries the diagram norms G(T).  Arrays are never written in place, so
    states may share them.
    """

    __slots__ = ("space", "gens")

    def __init__(self, space, gens):
        self.space = space
        self.gens = gens

    @property
    def terms(self):
        """Nonzero coefficients keyed by tree id."""
        out = {}
        for n, v in sorted(self.gens.items()):
            nz = np.flatnonzero(v)
            out.update(zip((nz + self.space.trees.start[n]).tolist(), v[nz].tolist()))
        return out

    def generations(self):
        return sorted(n for n, v in self.gens.items() if np.count_nonzero(v))

    def _check_space(self, other):
        if not isinstance(other, DiagramState) or other.space is not self.space:
            raise ValidationError("diagram states must live in the same space")

    def __add__(self, other):
        self._check_space(other)
        out = dict(self.gens)
        for n, v in other.gens.items():
            out[n] = out[n] + v if n in out else v
        return DiagramState(self.space, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        return DiagramState(self.space, {n: v * scalar for n, v in self.gens.items()})

    __rmul__ = __mul__

    def iaxpy(self, c, other):
        """self += c * other, replacing this state's arrays (reorthogonalization)."""
        self._check_space(other)
        if not c:
            return
        for n, v in other.gens.items():
            self.gens[n] = self.gens[n] + c * v if n in self.gens else c * v

    def inner(self, other):
        """G-weighted inner product, conjugate-linear in self."""
        self._check_space(other)
        w = self.space.weights
        return sum(_wdot(v, other.gens[n], w(n))
                   for n, v in sorted(self.gens.items()) if n in other.gens)

    def norm_sq(self):
        return self.inner(self).real

    def norm(self):
        return math.sqrt(float(self.norm_sq()))


def _scatter(index, values, size):
    out = np.zeros(size, dtype=values.dtype)
    np.add.at(out, index, values)
    return out


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
    for n, x in state.gens.items():
        step = t.successors(n)
        out[n + 1] = _scatter(step.cols, step.mult * x[step.rows], t.count(n + 1))
    return DiagramState(space, out)


def l_minus_apply(state: DiagramState) -> DiagramState:
    """Adjoint of l_plus under the G-weighted inner product.

    Matrix element from S down to T is m(S -> T) G(S)/G(T).  In the strict
    large-q engine the transition from the single arc back to the bare
    fermion carries the vanishing weight 2/q and is dropped.
    """
    space = state.space
    t = space.trees
    w = space.weights
    out = {}
    for n, y in state.gens.items():
        if n == 0 or (n == 1 and space.q is None):
            continue
        step = t.predecessors(n)
        down = _scatter(step.rows, step.mult * (w(n) * y)[step.cols], t.count(n - 1))
        out[n - 1] = down / w(n - 1)
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
    qm2 = space.q - 2

    def apply(state):
        diag = {n: 1j * mu * (qm2 * n + 1) * v for n, v in state.gens.items()}
        return hamiltonian_apply(state) + DiagramState(space, diag)

    return apply


def lanczos_large_n(q_mode, n_max, j_sq=None):
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
    space = DiagramSpace(q=q_mode, j_sq=j_sq, exact=exact)
    if exact:
        coeffs, basis = lanczos(hamiltonian_apply, space.root_state(),
                                max(n_max, 1) - 1, last_diagonal=False)
        coeffs = TridiagonalCoeffs(a=[Fraction(0)] + coeffs.a,
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
    by_size = {(q - 2) * n + 1: _wdot(v, v, space.weights(n)).real
               for n, v in sorted(state.gens.items()) if np.count_nonzero(v)}
    if not by_size:
        raise ValidationError("empty diagram state")
    total = sum(by_size.values())
    if not normalize and abs(float(total) - 1.0) > 1e-6:
        raise NormalizationError(
            f"state norm^2 = {float(total)!r}; pass normalize=True for raw states")
    probs = {s: p / total for s, p in by_size.items()}
    mean = sum(s * p for s, p in probs.items())
    var = sum((s - mean) ** 2 * p for s, p in probs.items())
    return probs, float(mean), math.sqrt(float(var))
