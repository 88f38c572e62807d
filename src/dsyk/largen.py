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
that generation's contiguous tree ids, and one scale that multiplies the
whole state.  Both rings run the same arithmetic: in float spaces the
arrays are float64 (complex128 once the dissipator enters) and the scale a
float; in exact spaces the arrays hold Python ints, which cannot overflow,
and the scale is a Fraction, so the inner product takes one Fraction per
generation, not one per tree, and exact runs stay exact at integer speed.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .krylov import TridiagonalCoeffs, lanczos
from .trees import TreeSpace, gather


def _common_scale(s, t):
    """(c, s/c, t/c) for two scales.  For rational scales c is the gcd of
    their numerators over the lcm of their denominators, so both quotients
    are integers; for float scales c is s."""
    if s == t:
        return s, 1, 1
    if not isinstance(s, Fraction):
        return s, 1, t / s
    g = math.gcd(s.numerator, t.numerator)
    d = math.lcm(s.denominator, t.denominator)
    return (Fraction(g, d), s.numerator // g * (d // s.denominator),
            t.numerator // g * (d // t.denominator))


def _lincomb(x, a, y, b):
    """{n: a x_n + b y_n} over the generations of x and y, without those
    that cancel to zero; a or b equal to 1 is not applied."""
    out = dict(x) if a == 1 else {n: v * a for n, v in x.items()}
    for n, v in y.items():
        if b != 1:
            v = b * v
        out[n] = out[n] + v if n in out else v
    return {n: v for n, v in out.items() if v.any()}


def check_q(q):
    """Raise ValidationError unless q is None or an even integer >= 4."""
    if q is not None and (q % 2 or q < 4):
        raise ValidationError(f"q={q} must be an even integer >= 4 (or None)")


class DiagramSpace:
    """Tree graph plus the physical weights G(T) for a given q at J = 1."""

    def __init__(self, q=None, exact=None):
        check_q(q)
        self.q = q
        if exact is None:
            exact = q is None
        self.exact = exact
        # J = 1: J_script^2 = 2^(1-q) q J^2 is 1/2 in both the q = 4 and
        # the strict large-q engines
        j_sq = Fraction(1, 2) if q is None else Fraction(q, 2 ** (q - 1))
        self.j_sq = j_sq if exact else float(j_sq)
        if q is None:
            self.arc_weight = 2 * self.j_sq
        else:
            self.arc_weight = 2 * self.j_sq / q
        self.trees = TreeSpace(q=q)
        self._g = []
        self._g_unit = []

    def weights(self, n):
        """G of every tree in generation n, as one array over its unit.

        In a float space the unit is 1.0.  In an exact space the array holds
        the integers D_n slot(T)/|Aut T|, D_n the lcm of the generation's
        |Aut|, and the unit is the rational w^n / D_n.
        """
        t = self.trees
        while len(self._g) <= n:
            k = len(self._g)
            ids = t.ids(k)
            slot, aut = t.slot[ids.start:ids.stop], t.aut[ids.start:ids.stop]
            wk = self.arc_weight ** k
            if self.exact:
                # int64 while they fit (TreeSpace), Python ints from here on
                slot, aut = slot.astype(object), aut.astype(object)
                d = math.lcm(*aut)
                g = slot * (d // aut)
                self._g_unit.append(wk / d)
            else:
                g = wk * slot.astype(float) / aut.astype(float)
                self._g_unit.append(1.0)
            self._g.append(g)
        return self._g[n]

    def gen_dot(self, n, x, y):
        """sum conj(x) G y over generation n (state scales not applied)."""
        g = self.weights(n)   # fills _g_unit[n] too
        # only complex arrays need vdot's conjugation, which calls
        # int.conjugate per entry of an exact state: 3.5x np.dot on 30-bit ints
        dot = np.vdot if np.iscomplexobj(x) else np.dot
        return self._g_unit[n] * dot(x, g * y)

    def _one(self):
        return Fraction(1) if self.exact else 1.0

    def _single_tree(self, n):
        """The bare fermion (n = 0) or the single arc (n = 1), coefficient 1."""
        return DiagramState(self, {n: np.ones(1, dtype=object if self.exact else float)},
                            self._one())

    def vacuum_state(self):
        return self._single_tree(0)

    def root_state(self):
        return self._single_tree(1)


class DiagramState:
    """Weighted sum of canonical trees: scale times {generation: coefficient array}.

    Supports the vector interface of the Krylov builders; the inner product
    carries the diagram norms G(T).  A float state's scale is a float that
    starts at 1.0; an exact state holds Python-int arrays and a rational
    scale.  A scalar product only changes the scale, and a sum first brings
    both operands to a common scale and drops the generations that cancel
    to zero.  Arrays are never written in place, so states may share them.
    """

    __slots__ = ("space", "gens", "scale")

    def __init__(self, space, gens, scale):
        self.space = space
        self.gens = gens
        self.scale = scale

    @property
    def terms(self):
        """Nonzero coefficients keyed by tree id."""
        out = {}
        for n, v in sorted(self.gens.items()):
            nz = np.flatnonzero(v)
            out.update(zip((nz + self.space.trees.start[n]).tolist(),
                           [self.scale * c for c in v[nz].tolist()]))
        return out

    def _check_space(self, other):
        if not isinstance(other, DiagramState) or other.space is not self.space:
            raise ValidationError("diagram states must live in the same space")

    def __add__(self, other):
        self._check_space(other)
        scale, a, b = _common_scale(self.scale, other.scale)
        return DiagramState(self.space, _lincomb(self.gens, a, other.gens, b), scale)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if self.space.exact and not isinstance(scalar, numbers.Rational):
            raise ValidationError(f"exact diagram states take rational scalars, got {scalar!r}")
        if not scalar:
            return DiagramState(self.space, {}, self.space._one())
        return DiagramState(self.space, self.gens, self.scale * scalar)

    __rmul__ = __mul__

    def iaxpy(self, c, other):
        """self += c * other, replacing this state's arrays (reorthogonalization)."""
        self._check_space(other)
        if not c:
            return
        other = other * c   # checks c; a product only moves the scale
        self.scale, a, b = _common_scale(self.scale, other.scale)
        self.gens = _lincomb(self.gens, a, other.gens, b)

    def inner(self, other):
        """G-weighted inner product, conjugate-linear in self."""
        self._check_space(other)
        dot = self.space.gen_dot
        total = sum(dot(n, v, other.gens[n])
                    for n, v in sorted(self.gens.items()) if n in other.gens)
        return total * (self.scale.conjugate() * other.scale)

    def norm_sq(self):
        return self.inner(self).real

    def norm(self):
        return math.sqrt(float(self.norm_sq()))


def _scatter(index, source, x, factor, size):
    """out[index[e]] += factor[e] x[source[e]], added in edge order from zero
    as np.add.at adds: by bincount for a float step of one slice, else 2^18
    edges at a time.  x is read through trees.gather, np.take in checked
    chunks.  Non-floats are multiplied only where factor != 1."""
    if x.dtype == np.float64 and len(index) <= 2 ** 18:
        return np.bincount(index, factor * gather(x, source), minlength=size)
    out = np.zeros(size, dtype=x.dtype)
    for e in range(0, len(index), 2 ** 18):
        values, f = gather(x, source[e:e + 2 ** 18]), factor[e:e + 2 ** 18]
        big = slice(None) if values.dtype == np.float64 else np.flatnonzero(f != 1)
        values[big] = f[big] * values[big]
        np.add.at(out, index[e:e + 2 ** 18], values)
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
    if space.q is None and len(state.gens) > 1:
        raise ValidationError("large-q diagram states must be generation-homogeneous")
    out = {}
    for n, x in state.gens.items():
        step = t.successors(n)
        out[n + 1] = _scatter(step.cols, step.rows, x, step.mult, t.count(n + 1))
    return DiagramState(space, out, state.scale)


def l_minus_apply(state: DiagramState) -> DiagramState:
    """Adjoint of l_plus under the G-weighted inner product.

    Matrix element from S down to T is m(S -> T) G(S)/G(T), which equals
    the arc weight times the integer a(T -> S) slot(S)/slot(T) (Step.down);
    those integers are scattered and the arc weight goes into the scale.
    In the strict large-q engine the transition from the single arc back
    to the bare fermion carries the vanishing weight 2/q and is dropped.
    """
    space = state.space
    t = space.trees
    out = {}
    for n, y in state.gens.items():
        if n == 0 or (n == 1 and space.q is None):
            continue
        step = t.predecessors(n)
        out[n - 1] = _scatter(step.rows, step.cols, y, step.down, t.count(n - 1))
    return DiagramState(space, out, state.scale * space.arc_weight)


def hamiltonian_apply(state: DiagramState) -> DiagramState:
    """Closed-system large-N Liouvillian L_H = L_+ + L_-."""
    return l_plus_apply(state) + l_minus_apply(state)


def make_dissipative_apply(space: DiagramSpace, mu: float):
    """L = L_+ + L_- + i mu s diagonal, s = (q-2) n_arcs + 1.

    Uses the concentrated operator size of each tree generation, which is
    where the closed-form dissipator applies at large N.
    """
    if space.q is None or space.exact:
        raise ValidationError("dissipative diagram evolution needs finite q in floats")
    qm2 = space.q - 2

    def apply(state):
        diag = {n: 1j * mu * (qm2 * n + 1) * v for n, v in state.gens.items()}
        return hamiltonian_apply(state) + DiagramState(space, diag, state.scale)

    return apply


def lanczos_large_n(q_mode, n_max):
    """Large-N Lanczos; returns (coeffs, basis states), basis[n] in generation n.

    q_mode None runs the strict large-q engine in exact rational
    arithmetic from the single arc: b_1 = J_script sqrt(2/q) vanishes, so
    the bare fermion decouples and is prepended with exact zeros for a_0
    and b_1^2, and b_n^2 = n(n-1)/2 for n >= 2 come out as exact
    Fractions (basis states are the unnormalized monic vectors).  Finite q
    runs the same recurrence in floats from the bare fermion, so b_1
    appears as the first coefficient, and the basis states are normalized.
    """
    exact = q_mode is None
    space = DiagramSpace(q=q_mode, exact=exact)
    space.trees.successors(n_max - 1)   # built first, so the memory guard projects n_max
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


def size_distribution(state: DiagramState, q):
    """Operator-size weights of a Krylov basis diagram state.

    Returns (P, mean, std) with P mapping s = (q-2) n_arcs + 1 to its
    probability, normalized by the state's norm.  q is the space's q, or
    for a large-q state the q that labels the sizes.
    """
    space = state.space
    by_size = {(q - 2) * n + 1: space.gen_dot(n, v, v).real
               for n, v in sorted(state.gens.items())}
    if not by_size:
        raise ValidationError("empty diagram state")
    total = sum(by_size.values())
    probs = {s: p / total for s, p in by_size.items()}
    mean = sum(s * p for s, p in probs.items())
    var = sum((s - mean) ** 2 * p for s, p in probs.items())
    return probs, float(mean), math.sqrt(float(var))
