"""Canonical rooted unordered trees as integer ids, grown one generation at a time.

Each vertex represents one interaction arc of an open melon diagram; a
growth step attaches one new leaf somewhere, a contraction removes one
childless vertex.  Id 0 is the empty diagram (the bare fermion) and id 1
the single arc.  Every other tree is the sorted list of its children's ids
(Aho-Hopcroft-Ullman), so two trees are isomorphic exactly when their child
ids are equal.  Generation n holds the trees with n arcs, as one matrix
with a column of child ids per tree, padded with leading zeros: row j holds
every tree's j-th smallest child, and a zero is a free slot of the root,
where the single arc, the only successor of the empty diagram, can grow.
Each generation is built from the one before in a few whole-row passes
and its ids are contiguous; every gather over its edges or trees goes
through ``gather``, a range-checked np.take.  Each step from generation n
to n + 1 keeps, as CSR-ordered edge arrays, the removal multiplicities
m(S -> T) = a(T -> S) |Aut S| / |Aut T| and the integers a(T -> S)
slot(S) / slot(T), a(T -> S) the number of ways to attach a leaf to T
that give S.  Growing inside a child c of T multiplies c's own edge
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
# measured, the exact q = 4 run to n = 18: 778 MB RSS for 1,357,243 trees
# (601 bytes each) with a row per tree, 746 MB (577) with a column.  The
# exact large-q run to n = 17 needs 390 bytes a tree (1,011,312 trees) and
# the float q = 4 run to n = 20 153 (9,135,362 trees).
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


# the dtypes of the edge integers and CSR offsets, narrowest first, each
# with the largest value it holds
_MAXIMA = [(np.dtype(t), int(np.iinfo(t).max)) for t in (np.uint8, np.uint16, np.int32, np.int64)]

# np.take converts an int32 index to intp, 8 bytes an index, so a long
# gather takes this many indices at a time
_TAKE = 2 ** 16


def narrowest(top):
    """The narrowest of uint8, uint16, int32 and int64 that holds 0 .. top."""
    for dt, most in _MAXIMA:
        if top <= most:
            return dt
    raise NumericalContractError(f"integer {top} does not fit in int64")


def gather(x, index):
    """x[index] for 1-d arrays, index of integers 0 .. len(x) - 1, by np.take,
    which skips fancy indexing's per-element overhead.  An index past either
    end raises IndexError: one of at most 32 bits is read unsigned, so that
    a negative one is past the end, and a 64-bit one is checked for
    negatives.  Up to _TAKE indices go to one np.take; past that the range
    is checked once and np.take clips _TAKE indices at a time into the
    output, unbuffered, so that its intp copy of the index stays short."""
    if index.itemsize < 8:
        index = index.view(f"u{index.itemsize}")
    elif len(index) and int(index.min()) < 0:
        raise IndexError(f"index {int(index.min())} is negative")
    if len(index) <= _TAKE:
        return np.take(x, index)
    if int(index.max()) >= len(x):
        raise IndexError(f"index {int(index.max())} is past the end, {len(x)}")
    out = np.empty(len(index), dtype=x.dtype)
    for e in range(0, len(index), _TAKE):
        np.take(x, index[e:e + _TAKE], out=out[e:e + _TAKE], mode="clip")
    return out


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


def _grown_rows(kids, rows, where, s, mult):
    """(S's child ids, one tree per column: kids[:, rows] with s over the
    first copy of c in row where; m(S -> T), mult times the copies of s).
    s > c, so one pass of compare-exchanges moves s to its place.  Trees go
    2^16 at a time to keep temporaries small; clip gathers unbuffered."""
    grown = np.empty((len(kids), len(rows)), dtype=np.int32)
    copies = np.zeros(len(rows), dtype=narrowest(len(kids)))
    for e in range(0, len(rows), 2 ** 16):
        part, r, s_e, w, n_s = (x[..., e:e + 2 ** 16] for x in (grown, rows, s, where, copies))
        for j, g in enumerate(part):
            np.take(kids[j], r, out=g, mode="clip")
            np.copyto(g, s_e, where=w == j)
            n_s += g == s_e
        for left, right in zip(part[:-1], part[1:]):
            low = np.minimum(left, right)
            np.maximum(left, right, out=right)
            left[:] = low
    return grown, _times(mult, copies)


def _pack(rows):
    """Each column of rows, one tree per column, as one int64 key: row j in
    as many bits as its largest value needs, row 0 highest.  Returns a list
    holding the keys, for _first_rows to free, and those bit widths."""
    bits = [int(row.max()).bit_length() for row in rows]
    if sum(bits) > 63:
        raise NumericalContractError(f"tree keys need {sum(bits)} bits, past 63")
    key = np.zeros(rows.shape[1], dtype=np.int64)
    for row, b in zip(rows, bits):
        key <<= b
        key |= row
    return [key], bits


def _unpack(key, bits):
    """The int32 rows that _pack packed into key, consuming key."""
    rows = np.empty((len(bits), len(key)), dtype=np.int32)
    for row, b in zip(rows[::-1], bits[::-1]):
        np.bitwise_and(key, (1 << b) - 1, out=row, casting="unsafe")
        key >>= b
    return rows


def _first_rows(keys, bits):
    """(the distinct keys by first appearance; the index of each one's first
    copy; every key's rank in that order).  keys is a list holding one int64
    array below 2^bits, emptied so that it is freed before the ranks are
    made.  With each key's index in its low bits one plain sort puts a
    group's first copy first; past 63 bits a stable argsort does."""
    key = keys.pop()
    size = len(key)
    shift = (size - 1).bit_length()
    if bits + shift <= 63:
        key <<= shift
        key |= np.arange(size, dtype=_index(size))
        key.sort()
        order = (key & ((1 << shift) - 1)).astype(_index(size))
        key >>= shift
    else:
        order = np.argsort(key, kind="stable").astype(_index(size))
        key.sort()
    new = np.concatenate(([True], key[1:] != key[:-1]))   # where a group starts
    firsts, key = np.compress(new, order), np.compress(new, key)   # frees the whole key
    by_first = np.argsort(firsts)
    rank = np.empty(len(firsts), dtype=np.int32)
    rank[by_first] = np.arange(len(firsts), dtype=np.int32)
    firsts, key = gather(firsts, by_first), gather(key, by_first)
    del by_first
    group = np.cumsum(new, dtype=np.int32)   # each key's group, 1-based, in sorted order
    del new
    group -= 1
    group = gather(rank, group)
    inverse = np.empty(size, dtype=np.int32)
    inverse[order] = group
    return key, firsts, inverse


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

    A grown tree's child ids are re-sorted by one compare-exchange pass,
    and each generation is deduplicated by one sort of int64 keys that
    pack each row of ``_gens[n]`` in its own bit width.  The growth step
    reads per-site and per-edge values through ``gather`` rather than
    fancy indexing, and picks each key's first copy with np.compress.

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
        # generation n's child ids, one tree per column, n rows up to the cap
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
        if self.cap is None or len(kids) < self.cap:
            kids = np.pad(kids, ((1, 0), (0, 0)))   # one more free root slot
        width, size = kids.shape

        # a site is the first copy of each distinct id in a tree: the root
        # (a zero) first, then each child ascending, as attachments lists them
        is_site = np.ones(kids.shape, dtype=bool)
        is_site[1:] = kids[1:] != kids[:-1]
        flat = np.flatnonzero(is_site.T)   # tree by tree
        del is_site
        k = np.diff(flat, append=kids.size)   # copies of c
        c = gather(kids.T.ravel(), flat)
        row, col = np.divmod(flat, width)
        row, col = row.astype(_index(size)), _narrow(col)
        del flat
        root = c == VACUUM
        k_attach = _narrow(np.where(root, 1, k))
        # slot(S)/slot(T) at the root: the free slots q - 1 - len(kids)
        k_down = _narrow(np.where(root, 1 if self.cap is None else k + self.cap - width, k))
        del k
        sites = np.count_nonzero(row == 0)
        first = tuple(kids[:, 0][kids[:, 0] != VACUUM].tolist())
        expected = [(c_, k_) for _, c_, k_ in attachments(first, self.cap)]
        if list(zip(c[:sites].tolist(), k_attach[:sites].tolist())) != expected:
            raise NumericalContractError(f"generation {n}: array growth sites "
                                         f"disagree with attachments for tree {lo}")

        # each site grows into every successor s of its child c: its edges
        # are ptr[c] .. ptr[c + 1] - 1 of the CSR of the earlier steps, and
        # s is a position in the generation after c's
        first_edge = gather(self._ptr, c)
        deg = gather(self._ptr, c + 1) - first_edge
        bounds = np.array(self.start, dtype=np.int32)
        after_c = gather(bounds, np.searchsorted(bounds, c, side="right"))
        del c
        index = _index(max(int(deg.sum()), len(self._cols)))
        site = np.repeat(np.arange(len(row), dtype=np.int32), deg)
        # an edge's index is its position in site order shifted by its site's
        # first_edge minus the position of that site's first edge
        first_edge = first_edge.astype(index, copy=False) - (np.cumsum(deg, dtype=index) - deg)
        del deg
        edge = np.arange(len(site), dtype=index)
        edge += gather(first_edge, site)
        del first_edge
        s = gather(self._cols, edge)
        s += gather(after_c, site)
        del after_c
        a = _times(gather(k_attach, site), gather(self._attach, edge))
        d = _times(gather(k_down, site), gather(self._down, edge))
        mult = gather(self._mult, edge)
        del edge, k_attach, k_down
        rows = gather(row, site)
        where = gather(col, site)
        del site, row, col
        grown, m = _grown_rows(kids, rows, where, s, mult)
        del kids, where, mult, s
        keys, bits = _pack(grown)
        del grown   # before the sort's temporaries

        key, firsts, cols = _first_rows(keys, sum(bits))
        self._gens.append(_unpack(key, bits))
        # |Aut S| = |Aut T| m / a and slot(S) = slot(T) down / a, read on the
        # first edge into each S; a remainder would mean a wrong edge integer
        t, af = lo + gather(rows, firsts), gather(a, firsts)
        aut = checked_product(gather(self.aut, t), gather(m, firsts))
        slot = checked_product(gather(self.slot, t), gather(d, firsts))
        del t, firsts, key
        if (aut % af).any() or (slot % af).any():
            raise NumericalContractError(f"generation {n + 1}: |Aut| or slot "
                                         "product is not an integer")
        self.aut = np.concatenate([self.aut, aut // af])
        self.slot = np.concatenate([self.slot, slot // af])
        del aut, slot, af   # before _add_step's copies
        self.start.append(hi + self._gens[-1].shape[1])
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
