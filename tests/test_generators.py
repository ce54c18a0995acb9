import hashlib
from itertools import permutations

from listpack.core import (
    degeneracy_order,
    dumps,
    instance_to_obj,
    list_to_cover,
    validate_cover,
)
from listpack.exact import find_list_packing, find_packing
from listpack.generators import (
    gen_c4,
    gen_kab_cover,
    gen_kbb_lists,
    gen_random_bipartite_cover,
    gen_shift_construction,
)


def test_c4_instance_shape():
    g, lists = gen_c4()
    assert g.n == 4 and len(g.edges) == 4
    assert lists.lists == ((1, 2), (1, 2), (1, 3), (2, 3))
    assert validate_cover(list_to_cover(g, lists)) is None


def test_c4_packs_after_padding_to_three_lists():
    g, lists = gen_c4()
    padded = [lst + (10 + v,) for v, lst in enumerate(lists.lists)]
    from listpack.core import ListAssignment

    assert find_list_packing(g, ListAssignment.from_lists(padded)) is not None


def test_kab_cover_shape_and_permutation_census():
    cover = gen_kab_cover()
    g = cover.graph
    assert g.n == 8 and cover.k == 3
    assert len(g.edges) == 12  # K_{2,6}
    assert validate_cover(cover) is None
    # toward a_0 every matching is the identity; toward a_1 each of the
    # six permutations of {0,1,2} appears exactly once
    seen = set()
    for b in range(2, 8):
        assert cover.matchings[(0, b)] == tuple((i, i) for i in range(3))
        pairs = cover.matching(1, b)
        rho = tuple(i for i, _ in sorted(pairs, key=lambda p: p[1]))
        seen.add(rho)
    assert seen == set(permutations(range(3)))


def test_kab_cover_has_no_packing():
    assert find_packing(gen_kab_cover()) is None


def test_shift_construction_shape():
    g, lists = gen_shift_construction()
    assert lists.uniform_size() == 3
    order, d = degeneracy_order(g)
    assert d == 2
    # every vertex after the base clique has exactly 2 earlier neighbours
    for v in range(3, g.n - 1):
        earlier = [u for u in g.neighbours()[v] if u < v]
        assert len(earlier) == 2
    # apex has 2 neighbours: one in the first layer, one in the last
    apex = g.n - 1
    assert sorted(g.neighbours()[apex]) == [0, g.n - 4]


def test_shift_construction_no_packing_but_packs_without_apex():
    from listpack.core import Graph, ListAssignment

    g, lists = gen_shift_construction()
    assert find_list_packing(g, lists) is None
    apex = g.n - 1
    trimmed = Graph.from_edges(
        apex, [e for e in g.edges if apex not in e]
    )
    trimmed_lists = ListAssignment.from_lists(lists.lists[:apex])
    assert find_list_packing(trimmed, trimmed_lists) is not None


def test_kbb_lists_shape():
    g, lists = gen_kbb_lists(2)
    assert g.n == 6 and len(g.edges) == 8  # K_{4,2}
    assert lists.lists[:2] == ((1, 2), (3, 4))
    assert set(lists.lists[2:]) == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_kbb_has_no_proper_list_colouring():
    g, lists = gen_kbb_lists(2)
    # no single proper colouring from the lists, checked by brute force
    from itertools import product

    nbrs = g.neighbours()
    for choice in product(*lists.lists):
        if all(choice[u] != choice[v] for u, v in g.edges):
            raise AssertionError(f"proper colouring found: {choice}")


def test_kbb_b1_and_b3_are_well_formed():
    g1, l1 = gen_kbb_lists(1)
    assert g1.n == 2 and l1.lists == ((1,), (1,))
    g3, l3 = gen_kbb_lists(3)
    assert g3.n == 27 + 3
    assert all(len(lst) == 3 for lst in l3.lists)


def test_random_bipartite_cover_is_pinned():
    # criterion 14 and scripts/lll_baseline.py build their instances
    # with this generator; the digest of seed 140000 (side 40, degree 8,
    # k 9) was recorded when both still built the cover inline
    cover = gen_random_bipartite_cover(40, 8, 9, 140000)
    digest = hashlib.sha256(dumps(instance_to_obj(cover)).encode()).hexdigest()
    assert digest[:16] == "b1a0475704f45c10"
    assert validate_cover(cover) is None
    g = cover.graph
    assert g.n == 80 and all(u < 40 <= v for u, v in g.edges)
    assert max(g.degrees()) <= 8
    assert all(len(pairs) == 9 for pairs in cover.matchings.values())
    assert gen_random_bipartite_cover(40, 8, 9, 140000) == cover


def test_d2_tightness_instances_are_pinned():
    # digests of the K_{2,6} cover and the shift construction, recorded
    # when both generators still took the degeneracy d as a parameter
    for instance, pinned in (
        (gen_kab_cover(), "b5996c2638eeff39"),
        (gen_shift_construction(), "11114bfa13756136"),
    ):
        text = dumps(instance_to_obj(instance))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == pinned
