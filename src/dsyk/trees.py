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

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalContractError, require_memory

VACUUM = 0
ROOT = 1

# memory per tree of a whole Lanczos run, rounded up from the heaviest one
# measured: the exact q = 4 run to n = 18 peaked at 778 MB RSS for
# 1,357,243 trees (601 bytes each); the exact large-q run to n = 17 at
# 490 MB for 1,011,312 trees (508 bytes each), and the float q = 4 run to
# n = 20 at 1,572 MB for 9,135,362 trees (180 bytes each)
TREE_BYTES = 650


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
    over the arc weight.  cols, mult and down are views of the space's
    edge arrays; mult and down are in the narrowest dtype that holds every
    step so far.
    """

    rows: np.ndarray
    cols: np.ndarray
    mult: np.ndarray
    down: np.ndarray


# the dtypes of the edge integers and CSR offsets, narrowest first
_DTYPES = [np.dtype(t) for t in (np.uint8, np.uint16, np.int32, np.int64)]


def narrowest(top):
    """The narrowest of uint8, uint16, int32 and int64 that holds 0 .. top."""
    for dt in _DTYPES:
        if top <= np.iinfo(dt).max:
            return dt
    raise NumericalContractError(f"integer {top} does not fit in int64")


def _narrow(values):
    """Non-negative integers in the narrowest dtype that holds them."""
    return values.astype(narrowest(int(values.max())), copy=False)


def _index(top):
    """int32, or int64 if needed, to index 0 .. top."""
    return np.promote_types(narrowest(top), np.int32)


def _times(x, y):
    """x * y for non-negative integer arrays, in the narrowest dtype that
    holds max(x) max(y)."""
    return np.multiply(x, y, dtype=narrowest(int(x.max()) * int(y.max())))


def checked_product(x, y):
    """x * y for non-negative integer arrays: in int64 while max(x) max(y)
    < 2^63 shows that every product fits, else in Python ints."""
    if x.dtype != object and int(x.max()) * int(y.max()) < 2 ** 63:
        return x.astype(np.int64) * y
    return x.astype(object) * y.astype(object)


def _pack(rows):
    """Each row as int64 words: its columns in order, all in as many bits as
    the largest value needs, as many to a word as fit in 63 bits.  Returns
    the words and that bit width."""
    bits = max(int(rows.max()).bit_length(), 1)
    per = 63 // bits
    words = []
    for lo in range(0, rows.shape[1], per):
        word = np.zeros(len(rows), dtype=np.int64)
        for j in range(lo, min(lo + per, rows.shape[1])):
            word <<= bits
            word |= rows[:, j]
        words.append(word)
    return words, bits


def _unpack(words, bits, width):
    """The int32 rows that _pack packed into words."""
    rows = np.empty((len(words[0]), width), dtype=np.int32)
    per = 63 // bits
    for i, word in enumerate(words):
        for j in reversed(range(i * per, min(i * per + per, width))):
            rows[:, j] = word & ((1 << bits) - 1)
            word = word >> bits
    return rows


def _first_rows(words):
    """(index of the first copy of each distinct packed row, in order of
    appearance; for every row, the rank of its distinct row in that order).

    The list words is left holding only the words of those first copies,
    so that the full ones are freed before the ranks are made.
    """
    size = len(words[0])
    # any sort groups equal rows, and each group's least index is its first copy
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    order = order.astype(_index(size))
    new = np.zeros(size, dtype=bool)   # where a group starts in order
    new[0] = True
    for word in words:
        w = word[order]
        new[1:] |= w[1:] != w[:-1]
        del w
    del word   # the full words go once words holds the first rows'
    firsts = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(firsts)
    rank = np.empty(len(firsts), dtype=np.int32)
    rank[by_first] = np.arange(len(firsts), dtype=np.int32)
    firsts = firsts[by_first]
    del by_first
    words[:] = [w[firsts] for w in words]
    group = np.cumsum(new, dtype=np.int32)   # each row's group, 1-based, in sorted order
    del new
    group -= 1
    inverse = np.empty(size, dtype=np.int32)
    inverse[order] = rank[group]
    return firsts, inverse


class TreeSpace:
    """Tree ids with their |Aut|, slot products and per-generation edges.

    ``q`` bounds children per vertex at q-1; ``q=None`` means no bound (the
    large-q engine).  A generation is built only once it, or a later one,
    is asked for, and not while the asked-for generation's projected size
    times TREE_BYTES exceeds the memory the operating system reports
    available: that raises ResourceLimitError.  ``aut`` and ``slot`` are
    arrays by tree id, replaced by longer ones as generations are added.
    They are int64 while a checked product shows that each new generation
    fits, and Python ints from the first one that may not: a star's |Aut|
    is (n-1)! and its slot product at q = 64 is already 63!/51! at 13
    arcs, past int64.

    The edges of every step built so far are also stored once, as one CSR
    by global T id: offsets ``_ptr``, and per edge S's position in its
    generation ``_cols`` and the integers ``_attach`` (a(T -> S)),
    ``_mult`` and ``_down``, each in the narrowest dtype that holds it.
    Each step's edges are concatenated onto these, so while a generation
    is added the old and the new arrays are both alive.  Each Step's cols,
    mult and down are views of them.
    """

    def __init__(self, q=None):
        self.cap = None if q is None else q - 1
        # generation n's child-id matrix, n columns wide up to the cap
        self._gens = [None, np.zeros((1, 1), dtype=np.int32)]
        self.aut = np.ones(2, dtype=np.int64)
        # product over vertices of (q-1)(q-2)...(q-c), c the child count
        self.slot = np.ones(2, dtype=np.int64)
        self.start = [0, 1, 2]   # generation n holds ids start[n] .. start[n+1]-1
        one = np.ones(1, dtype=np.uint8)
        zero = np.zeros(1, dtype=np.int32)
        self._ptr = np.array([0, 1], dtype=np.int32)
        self._cols = zero
        self._attach = self._mult = self._down = one
        self.steps = [Step(zero, zero, one, one)]

    def __len__(self):
        return self.start[-1]

    def ids(self, n):
        """The contiguous ids of generation n, building the generations up to
        it; each is refused while generation n's projected size does not fit."""
        while len(self.start) <= n + 1:
            require_memory(self.generation_bytes(n), f"generation {n}",
                           f"{TREE_BYTES} bytes per projected tree")
            self._grow()
        return range(self.start[n], self.start[n + 1])

    def count(self, n):
        return len(self.ids(n))

    def successors(self, n):
        """The attach step from generation n to n + 1."""
        self.ids(n + 1)
        return self.steps[n]

    def predecessors(self, n):
        """The attach step into generation n, read backwards for removals."""
        return self.successors(n - 1)

    def generation_bytes(self, n):
        """TREE_BYTES times generation n's size, projected from the newest
        generation m < n and its last growth ratio r as count(m) r^(n - m)."""
        m = len(self.start) - 2
        size, prev = self.count(m), self.count(m - 1)
        return TREE_BYTES * (size ** (n - m + 1) // prev ** (n - m))

    def _grow(self):
        """Build the generation after the newest one."""
        n = len(self.start) - 2
        lo, hi = self.start[n], self.start[n + 1]
        kids = self._gens[n]
        if self.cap is None or kids.shape[1] < self.cap:
            kids = np.pad(kids, ((0, 0), (1, 0)))   # one more free root slot
        width = kids.shape[1]

        # a site is the first copy of each distinct id in a row: the root
        # (a zero) first, then each child ascending, as attachments lists them
        is_site = np.ones(kids.shape, dtype=bool)
        is_site[:, 1:] = kids[:, 1:] != kids[:, :-1]
        flat = np.flatnonzero(is_site)
        del is_site
        k = np.diff(flat, append=kids.size)   # copies of c
        row, col = np.divmod(flat, width)
        row, col = row.astype(_index(len(kids))), _narrow(col)
        del flat
        c = kids[row, col]
        root = c == VACUUM
        k_attach = _narrow(np.where(root, 1, k))
        # slot(S)/slot(T) at the root: the free slots q - 1 - len(kids)
        k_down = _narrow(np.where(root, 1 if self.cap is None else k + self.cap - width, k))
        del k
        sites = np.count_nonzero(row == 0)
        first = tuple(kids[0][kids[0] != VACUUM].tolist())
        expected = [(c_, k_) for _, c_, k_ in attachments(first, self.cap)]
        if list(zip(c[:sites].tolist(), k_attach[:sites].tolist())) != expected:
            raise NumericalContractError(f"generation {n}: array growth sites "
                                         f"disagree with attachments for tree {lo}")

        # each site grows into every successor s of its child c: its edges
        # are ptr[c] .. ptr[c + 1] - 1 of the CSR of the earlier steps, and
        # s is a position in the generation after c's
        first_edge = self._ptr[c]
        deg = self._ptr[c + 1] - first_edge
        bounds = np.array(self.start, dtype=np.int32)
        after_c = bounds[np.searchsorted(bounds, c, side="right")]
        del c
        index = _index(max(int(deg.sum()), len(self._cols)))
        site = np.repeat(np.arange(len(row), dtype=np.int32), deg)
        # an edge's index is its position in site order shifted by its site's
        # first_edge minus the position of that site's first edge
        first_edge = first_edge.astype(index, copy=False) - (np.cumsum(deg, dtype=index) - deg)
        del deg
        edge = np.arange(len(site), dtype=index)
        edge += first_edge[site]
        del first_edge
        s = self._cols[edge]
        s += after_c[site]
        del after_c
        a = _times(k_attach[site], self._attach[edge])
        d = _times(k_down[site], self._down[edge])
        mult = self._mult[edge]
        del edge, k_attach, k_down
        rows = row[site]
        where = col[site]
        del site, row, col
        grown = kids[rows]
        del kids
        for j in range(width):
            np.copyto(grown[:, j], s, where=where == j)
        del where
        grown.sort(axis=1)
        m = _times(mult, (grown == s[:, None]).sum(axis=1, dtype=narrowest(width)))
        del mult, s
        words, bits = _pack(grown)
        del grown   # before the sort's temporaries

        firsts, cols = _first_rows(words)   # leaves the first rows' words
        self._gens.append(_unpack(words, bits, width))
        del words
        # |Aut S| = |Aut T| m / a and slot(S) = slot(T) down / a, read on the
        # first edge into each S; a remainder would mean a wrong edge integer
        t, af = lo + rows[firsts], a[firsts]
        aut = checked_product(self.aut[t], m[firsts])
        slot = checked_product(self.slot[t], d[firsts])
        del t, firsts
        if (aut % af).any() or (slot % af).any():
            raise NumericalContractError(f"generation {n + 1}: |Aut| or slot "
                                         "product is not an integer")
        self.aut = np.concatenate([self.aut, aut // af])
        self.slot = np.concatenate([self.slot, slot // af])
        self.start.append(hi + len(self._gens[-1]))
        self._add_step(rows, cols, a, m, d)

    def _add_step(self, rows, cols, a, m, d):
        """Concatenate the newest step onto the CSR arrays and re-point every
        Step at the new ones."""
        n = len(self.steps)
        all_rows = [step.rows for step in self.steps] + [rows]
        self.steps = []   # drops the views, so each old array goes once replaced
        # rows are sorted: the edges of T end where those of T + 1 begin
        ptr = np.searchsorted(rows, np.arange(1, self.start[n + 1] - self.start[n] + 1,
                                              dtype=rows.dtype))
        ptr += int(self._ptr[-1])
        self._ptr = np.concatenate([self._ptr, ptr.astype(_index(int(ptr[-1])))])
        self._cols = np.concatenate([self._cols, cols])
        self._attach = np.concatenate([self._attach, _narrow(a)])
        self._mult = np.concatenate([self._mult, _narrow(m)])
        self._down = np.concatenate([self._down, _narrow(d)])
        edges = self._ptr[self.start[:n + 2]].tolist()
        self.steps = [Step(r, self._cols[e0:e1], self._mult[e0:e1], self._down[e0:e1])
                      for r, e0, e1 in zip(all_rows, edges, edges[1:])]
