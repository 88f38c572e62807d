"""Canonical rooted unordered trees as integer ids, grown one generation at a time.

Each vertex represents one interaction arc of an open melon diagram; a
growth step attaches one new leaf somewhere, a contraction removes one
childless vertex.  Id 0 is the empty diagram (the bare fermion) and id 1
the single arc.  Every other tree is stored as the sorted tuple of its
children's ids (Aho-Hopcroft-Ullman), so two trees are isomorphic exactly
when their child-id tuples are equal.  Generation n holds the trees with
n arcs; it is built in one pass from generation n - 1 and its ids are
contiguous.  Each step from generation n to n + 1 keeps, as CSR-ordered
edge arrays, the removal multiplicities m(S -> T) = a(T -> S) |Aut S| /
|Aut T| and the integers a(T -> S) slot(S) / slot(T), from the attach
counts a(T -> S) found while growing.
"""

from __future__ import annotations

import gc
from bisect import bisect
from functools import lru_cache
from itertools import groupby
from math import factorial, perm
from typing import NamedTuple

import numpy as np

from .errors import require_memory

VACUUM = 0
ROOT = 1

# memory per tree of a whole Lanczos run, rounded up from the heaviest one
# measured: the exact q = 4 run to n = 18 peaked at 2,166 MB RSS for
# 1,357,243 trees (1,700 bytes each; to n = 17, 818 MB for 527,024); float
# q = 4 to n = 15 traced 1,100 bytes per tree
TREE_BYTES = 2_000


@lru_cache(maxsize=None)
def leaf_removals(kids):
    """(rest, c, k) for each distinct child id c of a tree, k its multiplicity.

    rest is the child-id tuple left when one copy of c is taken off.  A
    leaf is removed either as such a child (c == ROOT, leaving rest) or
    from inside one, turning the child ids into rest plus a predecessor
    of c; |Aut| is the product of |Aut c|^k k! over these children.
    """
    out = []
    prev = VACUUM
    for i, c in enumerate(kids):
        if c != prev:
            out.append((kids[:i] + kids[i + 1:], c, kids.count(c)))
            prev = c
    return tuple(out)


@lru_cache(maxsize=None)
def attachments(kids, cap):
    """(rest, c, k) for every place a new leaf can grow on a tree.

    Growing inside one of the k copies of child c turns the child ids into
    rest plus a successor of c.  The root, while it has fewer than cap
    children (no bound for cap None), is the site (kids, VACUUM, 1): its
    new child is the single arc, the only successor of the empty diagram.
    """
    root = ((kids, VACUUM, 1),) if cap is None or len(kids) < cap else ()
    return root + leaf_removals(kids)


class Step(NamedTuple):
    """Edges from generation n to n + 1 in CSR order (sorted by T).

    rows and cols are positions within the two generations; mult holds the
    removal multiplicity m(S -> T), and down the integer
    a(T -> S) slot(S)/slot(T): L_-'s matrix element m(S -> T) G(S)/G(T)
    over the arc weight.
    """

    rows: np.ndarray
    cols: np.ndarray
    mult: np.ndarray
    down: np.ndarray


class TreeSpace:
    """Tree ids with their |Aut|, slot products and per-generation edges.

    ``q`` bounds children per vertex at q-1; ``q=None`` means no bound (the
    large-q engine).  The next generation is built only once it is asked
    for, and not when its projected size times TREE_BYTES exceeds the
    memory the operating system reports available: that raises
    ResourceLimitError.
    """

    VACUUM = VACUUM
    ROOT = ROOT

    def __init__(self, q=None):
        self.cap = None if q is None else q - 1
        self.kids = [None, ()]
        self.aut = [1, 1]
        # product over vertices of (q-1)(q-2)...(q-c), c the child count
        self.slot = [1, 1]
        self.start = [0, 1, 2]   # generation n holds ids start[n] .. start[n+1]-1
        one = np.ones(1, dtype=np.int64)
        self.steps = [Step(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                           one, one)]
        self._succ = [((ROOT, 1),), None]   # (S id, a) per expanded tree

    def __len__(self):
        return len(self.kids)

    def ids(self, n):
        """The contiguous ids of generation n (building it if needed)."""
        while len(self.start) <= n + 1:
            self._grow()
        return range(self.start[n], self.start[n + 1])

    def count(self, n):
        return len(self.ids(n))

    def generation_of(self, i):
        return bisect(self.start, i) - 1

    def successors(self, n):
        """The attach step from generation n to n + 1."""
        while len(self.steps) <= n:
            self._grow()
        return self.steps[n]

    def predecessors(self, n):
        """The attach step into generation n, read backwards for removals."""
        return self.successors(n - 1)

    def _intern(self, kids, index):
        i = len(self.kids)
        index[kids] = i
        self.kids.append(kids)
        aut = 1
        slot = 1 if self.cap is None else perm(self.cap, len(kids))
        for c, run in groupby(kids):
            k = len(list(run))
            aut *= self.aut[c] ** k * factorial(k)
            slot *= self.slot[c] ** k
        self.aut.append(aut)
        self.slot.append(slot)
        return i

    def next_generation_bytes(self):
        """TREE_BYTES times the next generation's size, projected from the
        growth ratio of the last step."""
        n = len(self.start) - 2
        size, prev = self.count(n), self.count(n - 1)
        return TREE_BYTES * (size * size // prev)

    def _attach_all(self, lo, hi):
        """Grow every tree of ids lo..hi-1 by one leaf, interning the results."""
        # every tree this pass creates has one arc more than those it grows,
        # so its index only needs the generation being built
        kids, index, succ_of = self.kids, {}, self._succ
        for t in range(lo, hi):
            grown = {}
            for rest, c, k in attachments(kids[t], self.cap):
                for s, a in succ_of[c]:
                    i = bisect(rest, s)
                    key = rest[:i] + (s,) + rest[i:]
                    grown[key] = grown.get(key, 0) + k * a
            succ_of[t] = tuple([(index.get(key) or self._intern(key, index), a)
                                for key, a in grown.items()])

    def _grow(self):
        """Build the generation after the newest one."""
        n = len(self.start) - 2
        lo, hi = self.start[n], self.start[n + 1]
        require_memory(self.next_generation_bytes(), f"generation {n + 1}",
                       f"{TREE_BYTES} bytes per projected tree")
        # the build allocates a few tuples per edge and no reference cycles, so
        # the collector, which would trace them all, pauses until it ends
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._attach_all(lo, hi)
        finally:
            if enabled:
                gc.enable()
        self.start.append(len(self.kids))
        self._succ += [None] * (len(self.kids) - len(self._succ))
        succ = self._succ[lo:hi]
        rows = np.repeat(np.arange(hi - lo), [len(x) for x in succ])
        cols, attach = np.array([e for x in succ for e in x], dtype=np.int64).T.copy()
        aut = np.array(self.aut[lo:], dtype=float)
        slot = np.array(self.slot[lo:], dtype=float)
        # m and slot(S)/slot(T), which is q - 1 minus the child count of the
        # vertex the leaf grew on, are small integers, and these float
        # quotients lie within ~1e-16 of them
        mult = np.rint(attach * aut[cols - lo] / aut[rows]).astype(np.int64)
        down = attach * np.rint(slot[cols - lo] / slot[rows]).astype(np.int64)
        self.steps.append(Step(rows, cols - hi, mult, down))
