"""Nested-tuple tree combinatorics, and the integer-id TreeSpace against them."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dsyk.errors import ResourceLimitError
from dsyk.trees import TREE_BYTES, TreeSpace
from oracles import (
    attach_counts,
    attachments,
    automorphisms,
    brute_linear_extensions,
    canonical,
    enumerate_trees,
    leaf_removals,
    linear_extensions,
    n_vertices,
    nested_tree,
    slot_factor_product,
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
    assert sp.generation_of(sp.ids(7)[0]) == 7


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
        assert [sp.kids(i) for i in sp.ids(n + 1)] == order
        step = sp.successors(n)
        got = [[] for _ in sp.ids(n)]
        for t, s in zip(step.rows.tolist(), step.cols.tolist()):
            got[t].append(sp.kids(sp.start[n + 1] + s))
        assert got == grown


def test_treespace_resource_cap(monkeypatch):
    monkeypatch.setattr("dsyk.trees.TREE_BYTES", 2 ** 60)
    sp = TreeSpace(q=None)
    with pytest.raises(ResourceLimitError):
        sp.count(6)


def test_next_generation_memory_estimate():
    # TREE_BYTES per tree of the next generation, projected from the growth
    # ratio of the last step; A000081(11) = 1842 against 719^2 // 286 = 1807
    sp = TreeSpace(q=None)
    sp.count(10)
    assert sp.next_generation_bytes() == TREE_BYTES * (719 ** 2 // 286)
    assert abs(sp.next_generation_bytes() / (TREE_BYTES * sp.count(11)) - 1) < 0.02


def star(sp, n):
    """Id of the n-arc star: a root whose n - 1 children are single arcs."""
    return next(i for i in sp.ids(n) if sp.kids(i) == (TreeSpace.ROOT,) * (n - 1))


def test_star_slot_product_is_exact_past_int64():
    # q = 64 to 13 arcs, as in the large-q float Lanczos test: the star's
    # slot product 63!/51! ~ 2.8e21 overflows int64
    sp = TreeSpace(q=64)
    i = star(sp, 13)
    assert sp.slot[i] == math.perm(63, 12)


def test_star_aut_is_factorial():
    sp = TreeSpace(q=None)
    i = star(sp, 13)
    assert sp.aut[i] == math.factorial(12)
