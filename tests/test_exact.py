import copy
import hashlib
import json
import random
import tracemalloc
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from listpack.core import (
    CorrespondenceCover,
    Graph,
    ListAssignment,
    Packing,
    dumps,
    instance_to_obj,
    list_to_cover,
    validate_packing,
)
from listpack import exact
from listpack.constructive import pack_augment, pack_degenerate
from listpack.exact import (
    BudgetExceeded,
    _cycle_type_representatives,
    _first_unpackable,
    _hall_peels,
    canonical_list_assignments,
    decide_chi_star_corr,
    decide_chi_star_list,
    find_independent_transversal,
    find_list_packing,
    find_packing,
)
from listpack.generators import (
    gen_c4,
    gen_kab_cover,
    gen_kbb_lists,
    gen_shift_construction,
)
from listpack.probabilistic import pack_bipartite_lll


def brute_force_first_packing(cover):
    """Ground truth by trying every per-vertex column assignment: the
    first packing in product(permutations(range(k)), repeat=n) order,
    cols[j] being the column of the j-th vertex of g.peel[0], or None."""
    g, k = cover.graph, cover.k
    for cols in product(permutations(range(k)), repeat=g.n):
        columns = [None] * g.n
        for v, col in zip(g.peel[0], cols):
            columns[v] = col
        found = Packing.from_columns("cover", k, columns)
        if validate_packing(cover, found) is None:
            return found
    return None


def random_cover(rng, n, k, p=0.5):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    g = Graph.from_edges(n, edges)
    matchings = {}
    for u, v in sorted(g.edges):
        size = rng.randint(0, k)
        left = rng.sample(range(k), size)
        right = rng.sample(range(k), size)
        matchings[(u, v)] = list(zip(left, right))
    return CorrespondenceCover.from_matchings(g, k, matchings)


def test_c4_lists_have_no_packing():
    g, lists = gen_c4()
    assert find_list_packing(g, lists) is None
    assert find_packing(list_to_cover(g, lists)) is None


def test_triangle_packs_with_three_lists():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    lists = ListAssignment.from_lists([{1, 2, 3}] * 3)
    p = find_list_packing(g, lists)
    assert p is not None
    assert validate_packing(list_to_cover(g, lists), p) is None


def test_find_packing_matches_brute_force_on_random_covers():
    # find_packing returns exactly the brute force's first packing, or
    # None when it has none: fixing the first vertex's column to the
    # identity changes no answer
    rng = random.Random(20240817)
    covers = [
        random_cover(rng, rng.randint(1, 4), rng.randint(1, 3))
        for _ in range(60)
    ] + [
        random_cover(rng, rng.randint(1, 4), rng.randint(1, 3), p=0.8)
        for _ in range(40)
    ]
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    covers += [
        list_to_cover(*gen_c4()),
        CorrespondenceCover.from_matchings(
            disconnected, 2, {(0, 1): [(0, 1), (1, 0)], (2, 3): [(0, 0)]}
        ),
    ]
    unpackable = 0
    for cover in covers:
        want = brute_force_first_packing(cover)
        assert find_packing(cover) == want
        unpackable += want is None
    assert unpackable >= 10


def test_list_and_cover_searches_agree():
    rng = random.Random(7)
    for _ in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 3)
        g = Graph.from_edges(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        lists = ListAssignment.from_lists(
            [rng.sample(range(6), k) for _ in range(n)]
        )
        direct = find_list_packing(g, lists)
        via_cover = find_packing(list_to_cover(g, lists))
        assert (direct is None) == (via_cover is None)
        if direct is not None:
            assert validate_packing(list_to_cover(g, lists), direct) is None
        else:
            assert brute_force_first_packing(list_to_cover(g, lists)) is None


def test_budget_exceeded_is_raised():
    g, lists = gen_c4()
    with pytest.raises(BudgetExceeded):
        find_list_packing(g, lists, budget=1)
    with pytest.raises(BudgetExceeded):
        find_packing(list_to_cover(g, lists), budget=1)


def test_budget_exceeded_carries_the_nodes_spent():
    with pytest.raises(BudgetExceeded, match="after 44 nodes") as caught:
        find_packing(gen_kab_cover(), budget=43)
    assert caught.value.nodes == 44
    # the budget runs out inside the first vertex's fixed identity column
    with pytest.raises(BudgetExceeded) as caught:
        find_packing(gen_kab_cover(), budget=1)
    assert caught.value.nodes == 2
    # the deciders' searches draw on one budget, so the count is their sum
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(BudgetExceeded) as caught:
        decide_chi_star_corr(g, 3, budget=5)
    assert caught.value.nodes == 6


def test_search_node_counts_are_pinned():
    # each search decides with exactly this many nodes of budget
    cases = [
        lambda b: find_list_packing(*gen_c4(), budget=b),
        lambda b: find_list_packing(*gen_shift_construction(), budget=b),
        lambda b: find_packing(gen_kab_cover(), budget=b),
        lambda b: find_list_packing(*gen_kbb_lists(3), budget=b),
    ]
    # with the first vertex's column free these were 22, 566, 248, 153,888
    for search, nodes in zip(cases, [12, 85, 44, 30110]):
        assert search(nodes) is None
        with pytest.raises(BudgetExceeded):
            search(nodes - 1)


def test_independent_transversal_basic():
    g = Graph.from_edges(2, [(0, 1)])
    cover = CorrespondenceCover.from_matchings(g, 2, {(0, 1): [(0, 0), (1, 1)]})
    t = find_independent_transversal(cover, [0b01, 0b10])
    assert t == (0, 1)
    assert find_independent_transversal(cover, [0b01, 0b01]) is None
    with pytest.raises(ValueError):
        find_independent_transversal(cover, [0b01, 1 << 5])


def test_independent_transversal_checks_each_vertex_range():
    g = Graph.from_edges(2, [(0, 1)])
    cover = CorrespondenceCover.from_matchings(g, 3, {(0, 1): [(0, 0)]})
    # a negative mask, or a bit at k = 3 alone or beside allowed slots
    for bad in (-1, 1 << 3, 0b101 | 1 << 3):
        with pytest.raises(ValueError, match=r"allowed\[1\] contains a slot outside 0\.\.2"):
            find_independent_transversal(cover, [0b011, bad])
    assert find_independent_transversal(cover, [0b111, 0]) is None
    # vertex 1 comes first in the degeneracy order; each takes its lowest
    # free slot
    assert find_independent_transversal(cover, [0b101, 0b011]) == (2, 0)
    empty = CorrespondenceCover.from_matchings(Graph.from_edges(0, []), 3, {})
    assert find_independent_transversal(empty, []) == ()


def test_independent_transversal_needs_one_entry_per_vertex():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    cover = CorrespondenceCover.from_matchings(
        p3, 2, {(0, 1): [(0, 0), (1, 1)], (1, 2): [(0, 0), (1, 1)]}
    )
    assert find_independent_transversal(cover, [0b11] * 3) == (0, 1, 0)
    for entries in (2, 4):
        with pytest.raises(ValueError, match=f"allowed has {entries} entries for 3 vertices"):
            find_independent_transversal(cover, [0b11] * entries)
        with pytest.raises(ValueError, match=f"prefer has {entries} entries for 3 vertices"):
            find_independent_transversal(cover, [0b11] * 3, prefer=[0b10] * entries)
    # preferring slot 1 everywhere flips the transversal
    assert find_independent_transversal(cover, [0b11] * 3, prefer=[0b10] * 3) == (1, 0, 1)


def test_independent_transversal_node_counts_are_pinned():
    # one budget unit per allowed slot tried, forbidden ones included
    def identity(g, k):
        pairs = [(i, i) for i in range(k)]
        return CorrespondenceCover.from_matchings(
            g, k, {e: pairs for e in g.edges}
        )

    p3 = identity(Graph.from_edges(3, [(0, 1), (1, 2)]), 2)
    k3 = identity(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), 2)
    for cover, nodes, found in ((p3, 4, (0, 1, 0)), (k3, 10, None)):
        assert find_independent_transversal(cover, [0b11] * 3, budget=nodes) == found
        with pytest.raises(BudgetExceeded):
            find_independent_transversal(cover, [0b11] * 3, budget=nodes - 1)


def test_searches_run_past_the_recursion_limit():
    # a path of 1,500 vertices, more than the default recursion limit:
    # both searches backtrack in a loop, so each returns a valid answer
    n = 1500
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    lists = ListAssignment.from_lists([[1, 2]] * n)
    cover = list_to_cover(g, lists)
    for found in (find_packing(cover), find_list_packing(g, lists)):
        assert found is not None and validate_packing(cover, found) is None
    t = find_independent_transversal(cover, [0b11] * n)
    assert t is not None and len(t) == n
    conflicts = cover.conflicts
    for v in range(n):
        for u, edge in conflicts[v].items():
            assert edge.get(t[u]) != t[v], (u, v)


def test_independent_transversal_matches_brute_force():
    # the search places vertices in degeneracy order and tries each
    # vertex's preferred allowed slots lowest first, then the rest lowest
    # first, so it must return the first independent choice in that order
    rng = random.Random(99)
    for _ in range(80):
        cover = random_cover(rng, rng.randint(1, 4), 3)
        g, k = cover.graph, cover.k
        slots = [
            rng.sample(range(k), rng.randint(1, k)) for _ in range(g.n)
        ]
        allowed = [sum(1 << s for s in vs) for vs in slots]
        # bits outside allowed[v] are ignored
        prefer = [rng.randrange(1 << k) for _ in range(g.n)]
        conf = {}
        for (u, v), pairs in cover.matchings.items():
            conf[(u, v)] = set(pairs)

        def independent(choice):
            for (u, v), pairs in conf.items():
                if (choice[u], choice[v]) in pairs:
                    return False
            return True

        order = g.peel[0]
        for masks in (None, [0] * g.n, prefer):
            ranked = [
                sorted(slots[v], key=lambda s: (not masks or not masks[v] >> s & 1, s))
                for v in order
            ]
            first = None
            for placed in product(*ranked):
                choice = [0] * g.n
                for v, s in zip(order, placed):
                    choice[v] = s
                if independent(choice):
                    first = tuple(choice)
                    break
            found = find_independent_transversal(cover, allowed, prefer=masks)
            assert found == first, masks


def canonical_form(lists):
    """First-appearance colour renaming, the enumerator's normal form."""
    rename = {}
    out = []
    for lst in lists:
        for c in lst:
            if c not in rename:
                rename[c] = len(rename)
        out.append(tuple(sorted(rename[c] for c in lst)))
    # renaming can reorder within a list, so re-canonicalize the scan
    if any(list(lst) != sorted(lst) for lst in out):
        return canonical_form(out)
    return tuple(out)


def test_canonical_enumeration_is_canonical_and_complete():
    seen = set(
        tuple(a.lists) for a in canonical_list_assignments(3, 2)
    )
    assert len(seen) == sum(1 for _ in canonical_list_assignments(3, 2))
    for lists in seen:
        assert canonical_form(lists) == lists
    # the canonical form of any assignment on a large palette is enumerated
    rng = random.Random(5)
    for _ in range(200):
        lists = [tuple(sorted(rng.sample(range(20), 2))) for _ in range(3)]
        assert canonical_form(lists) in seen


@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.randoms(use_true_random=False),
)
@settings(max_examples=30, deadline=None)
def test_packability_invariant_under_colour_relabelling(n, k, rnd):
    g = Graph.from_edges(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rnd.random() < 0.6
        ],
    )
    lists = [tuple(sorted(rnd.sample(range(8), k))) for _ in range(n)]
    shift = rnd.randint(1, 50)
    relabelled = [tuple(c + shift for c in lst) for lst in lists]
    a = find_list_packing(g, ListAssignment.from_lists(lists))
    b = find_list_packing(g, ListAssignment.from_lists(relabelled))
    assert (a is None) == (b is None)


def test_decide_chi_star_list_on_tiny_graphs():
    k2 = Graph.from_edges(2, [(0, 1)])
    # a single edge: 1-lists can collide, 2-lists always pack
    w = decide_chi_star_list(k2, 1)
    assert w is not None and w.lists == ((0,), (0,))
    assert decide_chi_star_list(k2, 2) is None


def test_decide_chi_star_list_matches_full_palette_enumeration():
    # every 2-list-assignment of P2 over an explicit palette, versus the
    # canonical enumeration's verdict
    from itertools import combinations

    g = Graph.from_edges(2, [(0, 1)])
    palette = range(4)  # n*k = 4 colours suffice
    exists_witness = False
    for l0 in combinations(palette, 2):
        for l1 in combinations(palette, 2):
            la = ListAssignment.from_lists([l0, l1])
            if find_list_packing(g, la) is None:
                exists_witness = True
    assert exists_witness == (decide_chi_star_list(g, 2) is not None)


SMALL_GRAPHS = {
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "K4": (4, list(combinations(range(4), 2))),
    "C5": (5, [(i, (i + 1) % 5) for i in range(5)]),
}


def small_graph(name):
    return Graph.from_edges(*SMALL_GRAPHS[name])


@pytest.mark.parametrize("name", ["C4", "K4", "paw", "diamond"])
def test_hall_peel_certifies_only_packable_assignments(name):
    g, k = small_graph(name), 3
    nbrs = g.neighbours()
    certified = 0
    for a in canonical_list_assignments(g.n, k):
        if _hall_peels(nbrs, a.lists, k):
            certified += 1
            assert find_packing(list_to_cover(g, a)) is not None, a.lists
    assert certified > 0


def test_hall_peel_reads_both_counts():
    k2 = small_graph("K2").neighbours()
    assert _hall_peels(k2, ((0, 1), (0, 1)), 2)  # a = b = 1 <= 2 - 1
    assert not _hall_peels(k2, ((0,), (0,)), 1)  # a + b = 2 > 1
    assert _hall_peels(k2, ((0,), (1,)), 1)  # a = 0
    # the centre of the star K_{1,2} has a = 2 = k, but each leaf has
    # a = b = 1; once the leaves are deleted the centre has a = 0
    star = Graph.from_edges(3, [(0, 1), (0, 2)]).neighbours()
    assert _hall_peels(star, ((0, 1), (0, 1), (0, 1)), 2)
    # C4 at k = 3: with colour 0 on every list each vertex has a = b = 2;
    # with the neighbours of vertex 0 meeting L(0) on different colours
    # it has a = 2, b = 1, and the path left behind peels
    c4 = small_graph("C4").neighbours()
    assert not _hall_peels(c4, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8)), 3)
    assert _hall_peels(c4, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)), 3)


def test_decide_chi_star_list_searched_counts_are_pinned(monkeypatch):
    # P4 at k = 3 and K3 at k = 5 have 2d <= k, so nothing is searched;
    # on C4 at k = 3, 140 of the 7,284 canonical assignments are, and on
    # C5 at k = 3, 1,866 of 507,622
    searched = []

    def counting(g, k, conflicts, budget):
        searched.append(None)
        return search(g, k, conflicts, budget)

    search = exact._search
    monkeypatch.setattr(exact, "_search", counting)
    cases = (("P4", 3, 0), ("K3", 5, 0), ("C4", 3, 140), ("C5", 3, 1866))
    for name, k, count in cases:
        searched.clear()
        assert decide_chi_star_list(small_graph(name), k) is None
        assert len(searched) == count, name
    assert sum(1 for _ in canonical_list_assignments(4, 3)) == 7284


def twin_swap(lists):
    """(c', c) for the first vertex j, in scan order, whose list holds a
    colour c but not a lower colour c' that the same lists of the
    vertices before j hold, or None: the decider drops exactly the
    assignments with such a pair."""
    for j, lst in enumerate(lists):
        for c in lst:
            for low in range(c):
                if low not in lst and all(
                    (c in before) == (low in before) for before in lists[:j]
                ):
                    return low, c
    return None


def test_twin_rule_drops_only_relabellings_of_earlier_assignments():
    # swapping c' and c fixes the lists before j and lowers L(j), so each
    # dropped assignment is a relabelling of one enumerated before it,
    # and the first unpackable assignment is never dropped
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 2)):
        order = {}
        dropped = 0
        for a in canonical_list_assignments(n, k):
            order[a.lists] = len(order)
            if (pair := twin_swap(a.lists)) is not None:
                swap = {pair[0]: pair[1], pair[1]: pair[0]}
                twin = canonical_form(
                    [sorted(swap.get(c, c) for c in lst) for lst in a.lists]
                )
                assert order[twin] < order[a.lists], (a.lists, twin)
                dropped += 1
        assert dropped > 0, (n, k)
    # the twins named by canonical_list_assignments' docstring
    assert twin_swap(((0, 1), (0, 2))) is None
    assert twin_swap(((0, 1), (1, 2))) == (0, 1)


@pytest.mark.parametrize(
    "name", ["K2", "P3", "K3", "C4", "paw", "diamond", "K4"]
)
def test_decide_chi_star_list_matches_unfiltered_loop(name):
    # the peel skips only packable assignments, so the first unpackable
    # one, and with it the witness, is the unfiltered loop's
    g = small_graph(name)
    for k in (1, 2, 3):
        candidates = (
            (a, list_to_cover(g, a).conflicts)
            for a in canonical_list_assignments(g.n, k)
        )
        first = _first_unpackable(g, k, candidates, None)
        assert decide_chi_star_list(g, k) == first, (name, k)


@pytest.mark.parametrize("name", ["C4", "K4", "paw", "diamond"])
def test_decide_chi_star_list_searches_what_the_full_peel_leaves(monkeypatch, name):
    # the prefix peel skips whole subtrees, but the conflict maps
    # searched are, in order, the list-covers' of the filter that peels
    # each full assignment and drops each colour-relabelled twin; the
    # decider updates one set of maps in place, so each is copied as it
    # is searched
    searched = []

    def counting(g, k, conflicts, budget):
        searched.append(copy.deepcopy(conflicts))
        return search(g, k, conflicts, budget)

    search = exact._search
    monkeypatch.setattr(exact, "_search", counting)
    g = small_graph(name)
    nbrs = g.neighbours()
    for k in (2, 3):
        reference = [
            a
            for a in canonical_list_assignments(g.n, k)
            if not _hall_peels(nbrs, a.lists, k) and twin_swap(a.lists) is None
        ]
        maps = [list(list_to_cover(g, a).conflicts) for a in reference]
        searched.clear()
        witness = decide_chi_star_list(g, k)
        if witness is None:
            assert searched == maps, (name, k)
        else:  # the search stops at the witness
            assert searched == maps[: len(searched)], (name, k)
            assert reference[len(searched) - 1] == witness, (name, k)


@pytest.mark.parametrize("name", list(SMALL_GRAPHS))
def test_peel_with_no_list_fixed_leaves_the_k_over_2_core(name):
    # an open vertex goes when 2 * (its alive neighbours) <= k, so with
    # no list fixed the peel leaves nothing exactly when 2d <= k
    g = small_graph(name)
    nbrs, n = g.neighbours(), g.n
    for k in range(1, 2 * n):
        left = exact._peel(nbrs, [0] * n, k, 0, (1 << n) - 1, list(range(n)))
        core = set(range(n))
        while drop := [v for v in core if 2 * len(nbrs[v] & core) <= k]:
            core -= set(drop)
        assert left == sum(1 << v for v in core), (name, k)
        assert (left == 0) == (2 * g.peel[1] <= k), (name, k)


def hall_peel_left(nbrs, lists, k):
    """The vertices the Hall peel leaves, by its definition: delete a
    vertex with a + b <= k while there is one."""
    alive = set(range(len(lists)))
    while True:
        for v in sorted(alive):
            meets = [set(lists[u]) & set(lists[v]) for u in nbrs[v] if u in alive]
            meets = [m for m in meets if m]
            b = max((sum(c in m for m in meets) for c in lists[v]), default=0)
            if len(meets) + b <= k:
                alive.remove(v)
                break
        else:
            return alive


def test_prefix_peel_keeps_every_vertex_the_full_peel_keeps():
    # a prefix's peel deletes only vertices that the peel of the full
    # assignment deletes, and with every list fixed it is the Hall peel
    rng = random.Random(19)
    for _ in range(300):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        g = Graph.from_edges(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.6]
        )
        nbrs = g.neighbours()
        lists = [tuple(sorted(rng.sample(range(2 * k), k))) for _ in range(n)]
        masks = [sum(1 << c for c in lst) for lst in lists]
        full = exact._peel(nbrs, masks, k, n, (1 << n) - 1, list(range(n)))
        assert full == sum(1 << v for v in hall_peel_left(nbrs, lists, k))
        for fixed in range(n + 1):
            # the open lists are never read: stale masks change nothing
            stale = masks[:fixed] + [rng.getrandbits(2 * k) for _ in masks[fixed:]]
            left = exact._peel(nbrs, stale, k, fixed, (1 << n) - 1, list(range(n)))
            assert left & full == full, (lists, fixed)
            assert left == exact._peel(
                nbrs, masks, k, fixed, (1 << n) - 1, list(range(n))
            ), (lists, fixed)


def test_odometer_matches_filtered_product():
    # take returns False on a banned prefix: the sequences read at each
    # yield are, in order, those of itertools.product with no banned
    # prefix, and width 0 yields the empty sequence once
    rng = random.Random(24)
    widths = set()
    for _ in range(400):
        width = rng.randint(0, 5)
        sizes = [rng.randint(0, 3) for _ in range(width)]
        prefixes = [
            p for m in range(1, width + 1) for p in product(*map(range, sizes[:m]))
        ]
        banned = set(rng.sample(prefixes, rng.randint(0, min(4, len(prefixes)))))
        seq = [None] * width

        def take(j, option):
            seq[j] = option
            return tuple(seq[: j + 1]) not in banned

        steps = exact._odometer(width, lambda j: iter(range(sizes[j])), take)
        got = [tuple(seq) for _ in steps]
        want = [
            s
            for s in product(*map(range, sizes))
            if not any(s[:m] in banned for m in range(1, width + 1))
        ]
        assert got == want, (sizes, banned)
        widths.add(width)
    assert widths == set(range(6))
    # width 0 draws no option and takes none
    assert sum(1 for _ in exact._odometer(0, None, None)) == 1


def test_canonical_enumeration_runs_past_the_recursion_limit():
    # one loop, not one Python frame per vertex
    first = next(canonical_list_assignments(1500, 3))
    assert first.lists == ((0, 1, 2),) * 1500


def test_decide_chi_star_list_c5_at_k3_all_pack():
    # chi*_ell(C5) = 3: 507,622 canonical assignments, 1,866 of them
    # searched after the peel and the twin rule
    c5 = small_graph("C5")
    assert decide_chi_star_list(c5, 3) is None
    assert decide_chi_star_list(c5, 2) is not None


def test_decide_chi_star_corr_tiny():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert decide_chi_star_corr(k2, 2) is None
    w = decide_chi_star_corr(k2, 1)
    assert w is not None and find_packing(w) is None
    edgeless = Graph.from_edges(3, [])
    assert decide_chi_star_corr(edgeless, 2) is None


def test_decide_chi_star_corr_c4_witness_at_k2():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    w = decide_chi_star_corr(g, 2)
    assert w is not None
    assert find_packing(w) is None


def partial_matchings(k):
    """Every partial matching between two k-slot parts."""
    out = []
    for size in range(k + 1):
        for left in combinations(range(k), size):
            for right in permutations(range(k), size):
                out.append(tuple(zip(left, right)))
    return out


def test_decide_chi_star_corr_matches_all_partial_covers():
    # the decider enumerates perfect matchings, reduced by a spanning
    # forest and one cycle type per first non-tree edge; a packless cover
    # among all partial-matching covers (7 per edge at k = 2) must exist
    # exactly when it returns a witness
    k = 2
    graphs = [
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ]
    per_edge = partial_matchings(k)
    assert len(per_edge) == 7
    for g in graphs:
        edges = sorted(g.edges)
        exists = any(
            brute_force_first_packing(
                CorrespondenceCover.from_matchings(g, k, dict(zip(edges, choice)))
            )
            is None
            for choice in product(per_edge, repeat=len(edges))
        )
        witness = decide_chi_star_corr(g, k)
        assert exists == (witness is not None)
        if witness is not None:
            assert brute_force_first_packing(witness) is None


def perfect_covers(g, k):
    """Every cover with a perfect matching on each edge."""
    edges = sorted(g.edges)
    for perms in product(permutations(range(k)), repeat=len(edges)):
        yield CorrespondenceCover.from_matchings(
            g, k, {e: list(enumerate(p)) for e, p in zip(edges, perms)}
        )


@pytest.mark.parametrize(
    "n, edges, k",
    [
        # a triangle and a separate edge: two trees in the forest
        (5, [(0, 1), (0, 2), (1, 2), (3, 4)], 3),
        (4, list(combinations(range(4), 2)), 2),  # K4
        (4, [(0, 1), (0, 2), (1, 2), (2, 3)], 3),  # paw
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 3),  # C4
        (3, [(0, 1), (0, 2), (1, 2)], 4),  # K3, where every cover packs
    ],
    ids=["triangle+edge", "K4", "paw", "C4", "K3"],
)
def test_decide_chi_star_corr_matches_every_perfect_cover(n, edges, k):
    g = Graph.from_edges(n, edges)
    exists = any(find_packing(c) is None for c in perfect_covers(g, k))
    witness = decide_chi_star_corr(g, k)
    assert exists == (witness is not None)
    if witness is not None:
        assert find_packing(witness) is None
        assert brute_force_first_packing(witness) is None


def cycle_type(p):
    seen, lengths = set(), []
    for start in range(len(p)):
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v, length = p[v], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_cycle_type_representatives_are_the_lex_first_of_each_type():
    partition_counts = [1, 2, 3, 5, 7, 11, 15, 22]
    for k, count in enumerate(partition_counts, start=1):
        reps = list(_cycle_type_representatives(k))
        assert len(reps) == count
        assert reps == sorted(reps)
        assert len({cycle_type(p) for p in reps}) == count
        assert all(sorted(p) == list(range(k)) for p in reps)
        if k <= 6:
            first = {}
            for p in permutations(range(k)):
                first.setdefault(cycle_type(p), p)
            assert reps == sorted(first.values())
    assert (1, 0, 3, 4, 2) in _cycle_type_representatives(5)


def test_cycle_type_representatives_are_pinned():
    # sha256 prefix recorded while the partitions were built recursively
    reps = [list(_cycle_type_representatives(k)) for k in range(1, 21)]
    assert sum(map(len, reps)) == 2713
    digest = hashlib.sha256(json.dumps(reps).encode()).hexdigest()[:16]
    assert digest == "fa640db8184d6c19"
    with pytest.raises(ValueError, match="fold k=0 must be positive"):
        next(_cycle_type_representatives(0))
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="fold k=0 must be positive"):
        decide_chi_star_corr(k3, 0)
    # both deciders refuse k < 1 before looking at the graph, so no None
    # certifies a packing number of 0 or below
    k2, edgeless = small_graph("K2"), Graph.from_edges(3, [])
    for decide, g, k in (
        (decide_chi_star_list, k2, 0),
        (decide_chi_star_list, k2, -1),
        (decide_chi_star_corr, edgeless, 0),
    ):
        with pytest.raises(ValueError, match=f"fold k={k} must be positive"):
            decide(g, k)


def test_decide_chi_star_corr_at_k1100_spends_its_budget():
    # 1,100 one-cycles in the first cycle type, more than the default
    # recursion limit: the search runs until the budget is spent
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(BudgetExceeded) as caught:
        decide_chi_star_corr(k3, 1100, budget=10_000)
    assert caught.value.nodes == 10_001


def test_decide_chi_star_corr_cover_counts_are_pinned(monkeypatch):
    # forest edges fixed, one permutation per cycle type on the first
    # other edge: C4 and P5 at k = 4 check 5 and 1 covers, K4 5 * 24**2
    searched = []

    def counting(g, k, conflicts, budget):
        searched.append(None)
        return search(g, k, conflicts, budget)

    search = exact._search
    monkeypatch.setattr(exact, "_search", counting)
    cases = [
        (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 4, 5),
        (Graph.from_edges(5, [(i, i + 1) for i in range(4)]), 4, 1),
        (Graph.from_edges(4, list(combinations(range(4), 2))), 4, 2880),
    ]
    for g, k, count in cases:
        searched.clear()
        assert decide_chi_star_corr(g, k) is None
        assert len(searched) == count


@pytest.mark.parametrize("name, k", [("C4", 3), ("K4", 3), ("K4", 4)])
def test_decide_chi_star_corr_searches_the_maps_of_its_covers(monkeypatch, name, k):
    # the odometer updates one set of maps in place; at each cover, in
    # order, they are the maps CorrespondenceCover.conflicts builds from
    # its matchings: the forest on the identity, the first other edge
    # on one permutation per cycle type, the rest on every permutation
    searched = []

    def counting(g, k, conflicts, budget):
        searched.append(copy.deepcopy(conflicts))
        return search(g, k, conflicts, budget)

    search = exact._search
    monkeypatch.setattr(exact, "_search", counting)
    g = small_graph(name)
    edges = sorted(g.edges)
    free = exact._non_forest_edges(g.n, edges)
    covers = []
    for first in _cycle_type_representatives(k):
        for rest in product(permutations(range(k)), repeat=len(free) - 1):
            matchings = dict.fromkeys(edges, tuple((i, i) for i in range(k)))
            for e, p in zip(free, (first, *rest)):
                matchings[e] = tuple(enumerate(p))
            covers.append(CorrespondenceCover(graph=g, k=k, matchings=matchings))
    witness = decide_chi_star_corr(g, k)
    assert searched == [list(c.conflicts) for c in covers[: len(searched)]]
    if witness is None:
        assert len(searched) == len(covers)
    else:  # the search stops at the witness
        assert witness.matchings == covers[len(searched) - 1].matchings


def test_decide_chi_star_corr_edge_at_k600():
    # one search of 2 * 600 slots, more than the default recursion
    # limit: the stack must grow per vertex, not per slot
    assert decide_chi_star_corr(small_graph("K2"), 600) is None


def test_decide_chi_star_corr_c5_at_k4_all_pack():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert decide_chi_star_corr(c5, 4) is None


def test_decide_chi_star_corr_large_k_stays_small_in_memory():
    # the covers come lazily: no table of the k! permutations
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tracemalloc.start()
    try:
        assert decide_chi_star_corr(c4, 9, budget=2000) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


#: sha256 prefixes of the witnesses' JSON, recorded while each decider
#: still had its own enumeration loop
PINNED_WITNESSES = {
    ("list", "C4", 2): "6ecf11f2dc0d32d8",
    ("list", "K4", 3): "30314b880b4c7738",
    ("corr", "C5", 3): "7aeb11e2e85f0558",
    ("corr", "K3", 2): "0e605e7d788e5bcb",
}


def test_decider_witnesses_are_pinned():
    def digest(instance):
        text = dumps(instance_to_obj(instance))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def cycle(n):
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def clique(n):
        return Graph.from_edges(n, list(combinations(range(n), 2)))

    got = {}
    for name, g, k in (("C4", cycle(4), 2), ("K4", clique(4), 3)):
        got["list", name, k] = digest((g, decide_chi_star_list(g, k)))
    for name, g, k in (("C5", cycle(5), 3), ("K3", clique(3), 2)):
        got["corr", name, k] = digest(decide_chi_star_corr(g, k))
    assert got == PINNED_WITNESSES


def test_chi_star_budget_propagates():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(BudgetExceeded):
        decide_chi_star_list(g, 2, budget=5)
    with pytest.raises(BudgetExceeded):
        decide_chi_star_corr(g, 2, budget=5)


def test_decider_budgets_are_pinned():
    # the budget counts search nodes only, across every search a decider
    # runs; these boundaries were measured while each searched
    # assignment and cover got its own cover object
    c4 = small_graph("C4")
    witness = ListAssignment(((0, 1), (0, 1), (0, 2), (1, 2)))
    cases = [
        (decide_chi_star_list, 3, 2316, None),
        (decide_chi_star_list, 2, 60, witness),
        (decide_chi_star_corr, 4, 116, None),
    ]
    for decide, k, nodes, want in cases:
        assert decide(c4, k, budget=nodes) == want, (decide.__name__, k)
        with pytest.raises(BudgetExceeded) as caught:
            decide(c4, k, budget=nodes - 1)
        assert caught.value.nodes == nodes, (decide.__name__, k)


@pytest.mark.parametrize(
    "search",
    [
        find_packing,
        lambda cover: find_independent_transversal(cover, [0b1111] * 2),
        pack_degenerate,
        lambda cover: pack_bipartite_lll(cover, seed=1),
        pack_augment,
    ],
    ids=["find_packing", "transversal", "degenerate", "lll", "augment"],
)
def test_malformed_cover_raises_in_every_search_and_packer(search):
    # k = 4 meets every packer's hypothesis on K2, so only the cover is bad
    g = Graph.from_edges(2, [(0, 1)])
    bad = CorrespondenceCover.from_matchings(g, 4, {(0, 1): [(0, 5), (1, 5)]})
    with pytest.raises(ValueError, match=r"slot pair \(0,5\) out of range 0\.\.3"):
        search(bad)
