"""Canonical rooted unordered trees as integer ids, grown one generation at a time.

Each vertex represents one interaction arc of an open melon diagram; a
growth step attaches one new leaf somewhere, a contraction removes one
childless vertex.  Id 0 is the empty diagram (the bare fermion) and id 1
the single arc.  Every other tree is the sorted list of its children's ids
(Aho-Hopcroft-Ullman), so two trees are isomorphic exactly when their child
ids are equal.  Generation n holds the trees with n arcs, as one matrix
with a row of child ids per tree, padded with leading zeros: a zero is a
free slot of the root, where the single arc, the only successor of the
empty diagram, can grow.  Each generation is built from the one before in
a few whole-array passes and its ids are contiguous.  Each step from
generation n to n + 1 keeps, as CSR-ordered edge arrays, the removal
multiplicities m(S -> T) = a(T -> S) |Aut S| / |Aut T| and the integers
a(T -> S) slot(S) / slot(T), a(T -> S) the number of ways to attach a leaf
to T that give S.  Growing inside a child c of T multiplies c's own edge
integers, so they follow from earlier steps without any |Aut|.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalContractError, require_memory

VACUUM = 0
ROOT = 1

# memory per tree of a whole Lanczos run, rounded up from the heaviest one
# measured: the exact q = 4 run to n = 18 peaked at 909 MB RSS for
# 1,357,243 trees (702 bytes each); the float run to n = 18 at 521 MB
# (403 bytes each)
TREE_BYTES = 750


# The two cached tuple helpers below are the reference site enumeration:
# _grow checks the first tree of every generation against attachments.
# bench/spans.py reads their cache_info() as trees.cache_hit_ratio, so they
# go, with that check, in the same change that retires the metric there.
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


def _ramp(counts):
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) - np.repeat(ends - counts, counts)


def _first_rows(rows):
    """(index of the first copy of each distinct row, in order of appearance;
    for every row, the rank of its distinct row in that order)."""
    # pack the columns into as few int64 words as the largest id allows
    bits = max(int(rows.max()).bit_length(), 1)
    per = 63 // bits
    words = []
    for lo in range(0, rows.shape[1], per):
        word = np.zeros(len(rows), dtype=np.int64)
        for j in range(lo, min(lo + per, rows.shape[1])):
            word = (word << bits) | rows[:, j]
        words.append(word)
    # any sort groups equal rows, and each group's least index is its first copy
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    new = np.zeros(len(rows), dtype=bool)   # where a group starts in order
    new[0] = True
    for word in words:
        w = word[order]
        new[1:] |= w[1:] != w[:-1]
    firsts = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(firsts)
    rank = np.empty(len(firsts), dtype=np.int32)
    rank[by_first] = np.arange(len(firsts), dtype=np.int32)
    inverse = np.empty(len(rows), dtype=np.int32)
    inverse[order] = rank[np.cumsum(new, dtype=np.int32) - 1]
    return firsts[by_first], inverse


class TreeSpace:
    """Tree ids with their |Aut|, slot products and per-generation edges.

    ``q`` bounds children per vertex at q-1; ``q=None`` means no bound (the
    large-q engine).  The next generation is built only once it is asked
    for, and not when its projected size times TREE_BYTES exceeds the
    memory the operating system reports available: that raises
    ResourceLimitError.  ``aut`` and ``slot`` are arrays of Python ints by
    tree id, replaced by longer ones as generations are added: a star's
    |Aut| is (n-1)! and its slot product at q = 64 is already 63!/51! at
    13 arcs, past int64.
    """

    VACUUM = VACUUM
    ROOT = ROOT

    def __init__(self, q=None):
        self.cap = None if q is None else q - 1
        # generation n's child-id matrix, n columns wide up to the cap
        self._gens = [None, np.zeros((1, 1), dtype=np.int32)]
        self.aut = np.array([1, 1], dtype=object)
        # product over vertices of (q-1)(q-2)...(q-c), c the child count
        self.slot = np.array([1, 1], dtype=object)
        self.start = [0, 1, 2]   # generation n holds ids start[n] .. start[n+1]-1
        one = np.ones(1, dtype=np.int32)
        self.steps = [Step(np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32),
                           one, one)]
        self._attach = [one]   # a(T -> S) per edge of each step

    def __len__(self):
        return self.start[-1]

    def ids(self, n):
        """The contiguous ids of generation n (building it if needed)."""
        while len(self.start) <= n + 1:
            self._grow()
        return range(self.start[n], self.start[n + 1])

    def count(self, n):
        return len(self.ids(n))

    def generation_of(self, i):
        return bisect(self.start, i) - 1

    def kids(self, i):
        """The sorted child ids of tree i >= 1, as a tuple."""
        n = self.generation_of(i)
        row = self._gens[n][i - self.start[n]]
        return tuple(row[row != VACUUM].tolist())

    def successors(self, n):
        """The attach step from generation n to n + 1."""
        while len(self.steps) <= n:
            self._grow()
        return self.steps[n]

    def predecessors(self, n):
        """The attach step into generation n, read backwards for removals."""
        return self.successors(n - 1)

    def next_generation_bytes(self):
        """TREE_BYTES times the next generation's size, projected from the
        growth ratio of the last step."""
        n = len(self.start) - 2
        size, prev = self.count(n), self.count(n - 1)
        return TREE_BYTES * (size * size // prev)

    def _edges(self, n):
        """Every edge of steps 0 .. n-1 as CSR arrays by global T id:
        (offsets, S id, a(T -> S), m(S -> T), a(T -> S) slot(S)/slot(T))."""
        start, steps = self.start, self.steps[:n]
        ptr = np.zeros(start[n] + 1, dtype=np.int64)
        np.cumsum(np.concatenate([np.bincount(s.rows, minlength=start[g + 1] - start[g])
                                  for g, s in enumerate(steps)]), out=ptr[1:])
        succ = np.concatenate([s.cols + start[g + 1] for g, s in enumerate(steps)])
        return (ptr, succ, np.concatenate(self._attach),
                np.concatenate([s.mult for s in steps]),
                np.concatenate([s.down for s in steps]))

    def _grow(self):
        """Build the generation after the newest one."""
        n = len(self.start) - 2
        lo, hi = self.start[n], self.start[n + 1]
        require_memory(self.next_generation_bytes(), f"generation {n + 1}",
                       f"{TREE_BYTES} bytes per projected tree")
        kids = self._gens[n]
        if self.cap is None or kids.shape[1] < self.cap:
            kids = np.pad(kids, ((0, 0), (1, 0)))   # one more free root slot
        width = kids.shape[1]

        # a site is the first copy of each distinct id in a row: the root
        # (a zero) first, then each child ascending, as attachments lists them
        is_site = np.ones(kids.shape, dtype=bool)
        is_site[:, 1:] = kids[:, 1:] != kids[:, :-1]
        row, col = np.nonzero(is_site)
        c = kids[row, col]
        flat = row * width + col
        k = (np.append(flat[1:], kids.size) - flat).astype(np.int32)   # copies of c
        root = c == VACUUM
        k_attach = np.where(root, 1, k)
        # slot(S)/slot(T) at the root: the free slots q - 1 - len(kids)
        k_down = np.where(root, 1 if self.cap is None else k + self.cap - width, k)
        sites = np.count_nonzero(row == 0)
        expected = [(c_, k_) for _, c_, k_ in attachments(self.kids(lo), self.cap)]
        if list(zip(c[:sites].tolist(), k_attach[:sites].tolist())) != expected:
            raise NumericalContractError(f"generation {n}: array growth sites "
                                         f"disagree with attachments for tree {lo}")

        # each site grows into every successor s of its child c
        ptr, succ, attach, mult, down = self._edges(n)
        deg = ptr[c + 1] - ptr[c]
        edge = np.repeat(ptr[c], deg) + _ramp(deg)
        site = np.repeat(np.arange(len(c)), deg)
        s = succ[edge]
        rows = row[site].astype(np.int32)
        grown = kids[rows]
        grown[np.arange(len(site)), col[site]] = s
        grown.sort(axis=1)
        a = k_attach[site] * attach[edge]
        m = mult[edge] * (grown == s[:, None]).sum(axis=1, dtype=np.int32)
        d = k_down[site] * down[edge]
        del ptr, succ, attach, mult, down, edge, site, s   # before the sort's temporaries

        firsts, cols = _first_rows(grown)
        self._gens.append(grown[firsts])
        del grown
        # |Aut S| = |Aut T| m / a and slot(S) = slot(T) down / a, read on the
        # first edge into each S; a remainder would mean a wrong edge integer
        t, af = lo + rows[firsts], a[firsts]
        aut = self.aut[t] * m[firsts]
        slot = self.slot[t] * d[firsts]
        if (aut % af).any() or (slot % af).any():
            raise NumericalContractError(f"generation {n + 1}: |Aut| or slot "
                                         "product is not an integer")
        self.aut = np.concatenate([self.aut, aut // af])
        self.slot = np.concatenate([self.slot, slot // af])
        self.start.append(hi + len(firsts))
        self.steps.append(Step(rows, cols, m, d))
        self._attach.append(a)
