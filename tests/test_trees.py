"""Nested-tuple tree combinatorics, and the integer-id TreeSpace against them."""

import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sysconf_with_4_gib_available
from dsyk.errors import ResourceLimitError, require_memory
from dsyk.trees import ROOT, TREE_BYTES, TreeSpace, checked_product, narrowest
from oracles import (
    attach_counts,
    attachments,
    automorphisms,
    brute_linear_extensions,
    canonical,
    enumerate_trees,
    generation_of,
    leaf_removals,
    linear_extensions,
    n_vertices,
    nested_tree,
    slot_factor_product,
    tree_kids,
    tuple_growth_order,
)

A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486]

PATH3 = (((),),)
CATERPILLAR4 = (((),), ())
STAR4 = ((), (), ())


def random_tree(draw, max_n=7):
    """Hypothesis helper: grow a tree by random attachment."""
    t = ()
    n = draw(st.integers(min_value=1, max_value=max_n))
    for _ in range(n - 1):
        opts = attachments(t)
        t = opts[draw(st.integers(min_value=0, max_value=len(opts) - 1))]
    return t


trees = st.composite(random_tree)


def test_single_vertex():
    assert n_vertices(()) == 1
    assert linear_extensions(()) == 1
    assert automorphisms(()) == 1
    assert leaf_removals(()) == ()


def test_small_tree_counts():
    assert n_vertices(PATH3) == 3
    assert linear_extensions(PATH3) == 1
    assert linear_extensions(CATERPILLAR4) == 3
    assert linear_extensions(STAR4) == 6
    assert automorphisms(STAR4) == 6
    assert automorphisms(CATERPILLAR4) == 1
    assert automorphisms(((), ())) == 2


@given(trees())
@settings(max_examples=60, deadline=None)
def test_linear_extensions_against_brute_force(t):
    assert linear_extensions(t) == brute_linear_extensions(t)


@given(trees())
@settings(max_examples=60, deadline=None)
def test_canonical_sorted_children_is_stable(t):
    assert t == canonical(t)
    assert all(c == canonical(c) for c in t)


def test_enumerate_tree_counts():
    # unordered rooted trees: OEIS A000081
    assert [len(enumerate_trees(n)) for n in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]
    # at most 3 children per vertex
    capped = [len(enumerate_trees(n, max_children=3)) for n in range(1, 8)]
    assert capped[:4] == [1, 1, 2, 4]
    assert all(c <= u for c, u in
               zip(capped, [1, 1, 2, 4, 9, 20, 48]))


@pytest.mark.parametrize("n", range(2, 9))
def test_extension_aut_sum_identity(n):
    # growth histories of n-1 attachments, counted up to isomorphism with
    # weight ext/aut, total exactly (n-1)!
    total = sum(
        Fraction(linear_extensions(t), automorphisms(t))
        for t in enumerate_trees(n))
    assert total == math.factorial(n - 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_growth_history_count(n):
    # each unordered tree is reached by linear_extensions(t) insertion orders,
    # but an insertion order determines the labeled tree only up to
    # automorphism; the number of distinct histories of n-1 attachments
    # grows as a known integer sequence we can recompute independently
    by_history = {(): 1}
    for _ in range(n - 1):
        nxt = {}
        for t, ways in by_history.items():
            for s in attachments(t):
                mult = sum(m for r, m in leaf_removals(s) if r == t)
                nxt[s] = nxt.get(s, 0) + ways * mult
        by_history = nxt
    for t, ways in by_history.items():
        assert ways == linear_extensions(t)


@given(trees())
@settings(max_examples=60, deadline=None)
def test_attachment_removal_duality(t):
    for s in attachments(t):
        ms = [m for r, m in leaf_removals(s) if r == t]
        assert len(ms) == 1 and ms[0] >= 1
    for r, m in leaf_removals(t):
        assert t in attachments(r)
        assert m >= 1


@given(trees())
@settings(max_examples=60, deadline=None)
def test_leaf_removal_multiplicity_totals(t):
    # total multiplicity equals the number of childless non-root vertices
    def leaves(e, is_root=True):
        if not e and not is_root:
            return 1
        return sum(leaves(c, False) for c in e)

    assert sum(m for _, m in leaf_removals(t)) == leaves(t)


def test_slot_factor_product_examples():
    q = 4
    assert slot_factor_product((), q) == 1
    assert slot_factor_product(((),), q) == 3
    assert slot_factor_product(PATH3, q) == 9
    assert slot_factor_product(STAR4, q) == 3 * 2 * 1
    assert slot_factor_product(((), (), (), ()), q) == 0  # no 4th slot at q=4


def max_children(e):
    return max([len(e)] + [max_children(c) for c in e]) if e else 0


def test_treespace_interning_and_adjacency():
    sp = TreeSpace(q=4)
    assert sp.count(0) == sp.count(1) == 1
    assert sp.successors(0) is sp.predecessors(1)
    step = sp.successors(0)
    assert [a.tolist() for a in step] == [[0], [0], [1], [1]]
    # cap: no vertex may exceed q-1 = 3 children
    assert all(max_children(nested_tree(sp, i)) <= 3 for i in sp.ids(7))
    assert generation_of(sp, sp.ids(7)[0]) == 7


def test_tree_counts_uncapped_are_a000081():
    sp = TreeSpace(q=None)
    assert [sp.count(n) for n in range(1, len(A000081) + 1)] == A000081


@pytest.mark.parametrize("q", [4, 6, None])
def test_id_graph_matches_nested_tuple_oracle(q):
    # every tree up to 9 arcs: the generation is the oracle's set of trees,
    # each successor set, removal multiplicity, L_- factor, |Aut| and slot
    # product agree
    sp = TreeSpace(q=q)
    cap = None if q is None else q - 1
    for n in range(1, 10):
        encs = [nested_tree(sp, i) for i in sp.ids(n)]
        assert sorted(encs) == enumerate_trees(n, cap)
        for i, enc in zip(sp.ids(n), encs):
            assert sp.aut[i] == automorphisms(enc)
            if q is not None:
                assert sp.slot[i] == slot_factor_product(enc, q)
        if n == 9:
            break
        step = sp.successors(n)
        succ = {}
        for t, s, m, down in zip(*(v.tolist() for v in step)):
            s_enc = nested_tree(sp, sp.ids(n + 1)[s])
            succ.setdefault(encs[t], set()).add(s_enc)
            a = attach_counts(encs[t], cap)[s_enc]
            # a(T -> S) slot(S)/slot(T); the slot ratio is 1 at q = None
            ratio = 1 if q is None else (slot_factor_product(s_enc, q)
                                         // slot_factor_product(encs[t], q))
            assert down == a * ratio
            assert m == dict(leaf_removals(s_enc))[encs[t]]
        assert succ == {enc: set(attachments(enc, cap)) for enc in encs}


@pytest.mark.parametrize("q", [4, None])
def test_ids_follow_the_tuple_build_order(q):
    # new trees are numbered, and each tree's edges ordered, as a tuple build
    # meets them; another numbering sums the float states in another order
    sp = TreeSpace(q=q)
    for n in range(1, 9):
        order, grown = tuple_growth_order(sp, n)
        assert [tree_kids(sp, i) for i in sp.ids(n + 1)] == order
        step = sp.successors(n)
        got = [[] for _ in sp.ids(n)]
        for t, s in zip(step.rows.tolist(), step.cols.tolist()):
            got[t].append(tree_kids(sp, sp.start[n + 1] + s))
        assert got == grown


def test_treespace_resource_cap(monkeypatch):
    monkeypatch.setattr("dsyk.trees.TREE_BYTES", 2 ** 60)
    sp = TreeSpace(q=None)
    with pytest.raises(ResourceLimitError):
        sp.count(6)


def test_next_generation_memory_estimate():
    # TREE_BYTES per tree of a later generation, projected from the growth
    # ratio of the last step; A000081(11) = 1842 against 719^2 // 286 = 1807
    sp = TreeSpace(q=None)
    sp.count(10)
    assert sp.generation_bytes(11) == TREE_BYTES * (719 ** 2 // 286)
    assert sp.generation_bytes(13) == TREE_BYTES * (719 ** 4 // 286 ** 3)
    assert abs(sp.generation_bytes(11) / (TREE_BYTES * sp.count(11)) - 1) < 0.02


def test_memory_guard_refuses_early_from_the_asked_generation(monkeypatch):
    # q = 4 to 21 arcs, with 4 GiB available: the graph stops at the first
    # generation whose projection to n = 21 needs more (generation 9, 211
    # trees, ratio 211/89: 4.03 GiB at 650 bytes a tree), not once the next
    # generation alone is too large, which comes only after more than 1 GB
    # of graph is built
    sp = TreeSpace(q=4)

    def projection(m):
        sp.count(m)   # newest generation m
        return sp.generation_bytes(21)

    stop = next(m for m in range(1, 21) if projection(m) > 4 * 2 ** 30)
    monkeypatch.setattr(os, "sysconf", sysconf_with_4_gib_available)
    sp = TreeSpace(q=4)
    with pytest.raises(ResourceLimitError, match="generation 21"):
        sp.ids(21)
    assert len(sp.start) - 1 < 12   # generations built
    assert len(sp.start) - 2 == stop   # the newest generation built


def test_memory_guard_prints_a_need_above_the_available(monkeypatch):
    # a need one byte above 6.5 GiB: rounded to 0.1 GiB, need and available
    # memory both read 6.5; the need is rounded up and the memory down
    page = os.sysconf("SC_PAGE_SIZE")
    pages = 13 * 2 ** 29 // page
    monkeypatch.setattr(os, "sysconf",
                        lambda name: pages if name == "SC_AVPHYS_PAGES" else page)
    with pytest.raises(ResourceLimitError) as refused:
        require_memory(pages * page + 1, "a run", "one byte too many")
    need, free = (float(x.replace(",", ""))
                  for x in re.findall(r"([\d,.]+) [GM]iB", str(refused.value)))
    assert need > free


def test_q4_graph_is_stored_in_narrow_integers():
    # through n = 15 every edge integer is one byte wide (at q = 4 they stay
    # below 256 through n = 20), and |Aut| and the slot products are int64
    sp = TreeSpace(q=4)
    sp.successors(14)
    for step in sp.steps:
        assert step.mult.dtype.itemsize == step.down.dtype.itemsize == 1
    assert sp._attach.dtype.itemsize == 1
    assert sp.aut.dtype == sp.slot.dtype == np.int64


@pytest.mark.parametrize("top, dtype", [(255, np.uint8), (256, np.uint16),
                                        (2 ** 31 - 1, np.int32), (2 ** 31, np.int64)])
def test_narrowest_dtype_at_its_boundaries(top, dtype):
    assert narrowest(top) == dtype


def test_checked_product_leaves_int64_only_past_it():
    below = checked_product(np.array([1, 2 ** 62 - 1]), np.array([2, 2], dtype=np.uint8))
    assert below.dtype == np.int64 and below.tolist() == [2, 2 ** 63 - 2]
    above = checked_product(np.array([1, 2 ** 62]), np.array([2, 2], dtype=np.uint8))
    assert above.dtype == object and above.tolist() == [2, 2 ** 63]
    # the check is on max(x) max(y), not on each product
    assert checked_product(np.array([2 ** 62, 1]), np.array([1, 2])).dtype == object


def star(sp, n):
    """Id of the n-arc star: a root whose n - 1 children are single arcs."""
    return next(i for i in sp.ids(n) if tree_kids(sp, i) == (ROOT,) * (n - 1))


def test_star_slot_product_is_exact_past_int64():
    # q = 64 to 13 arcs, as in the large-q float Lanczos test: the star's
    # slot product 63!/51! ~ 2.8e21 overflows int64
    sp = TreeSpace(q=64)
    i = star(sp, 13)
    assert sp.slot.dtype == object   # the Python-int fallback
    assert sp.slot[i] == math.perm(63, 12)


def test_star_aut_is_factorial():
    sp = TreeSpace(q=None)
    i = star(sp, 13)
    assert sp.aut[i] == math.factorial(12)
