import json
import random

import pytest
from hypothesis import given, strategies as st

from listpack.core import (
    CorrespondenceCover,
    Graph,
    InstanceFormatError,
    ListAssignment,
    Packing,
    barred_slots,
    degeneracy_order,
    dumps,
    instance_from_obj,
    instance_to_obj,
    list_to_cover,
    packing_from_obj,
    packing_to_obj,
    packing_to_slots,
    slots_to_colours,
    validate_cover,
    validate_packing,
)


def k4():
    return Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def test_graph_normalizes_and_validates():
    g = Graph.from_edges(3, [(2, 0), (0, 1)])
    assert (0, 2) in g.edges and (0, 1) in g.edges
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_graph_degrees():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degrees() == [3, 1, 1, 1]
    assert g.max_degree() == 3
    assert g.neighbours()[0] == {1, 2, 3}


def test_list_assignment_sorted_and_uniform():
    la = ListAssignment.from_lists([{3, 1}, {2, 4}])
    assert la.lists == ((1, 3), (2, 4))
    assert la.uniform_size() == 2
    with pytest.raises(ValueError):
        ListAssignment.from_lists([{1, 2}, {1}]).uniform_size()


def test_degeneracy_known_values():
    assert degeneracy_order(k4())[1] == 3
    path = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert degeneracy_order(path)[1] == 1
    cycle = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert degeneracy_order(cycle)[1] == 2
    edgeless = Graph.from_edges(3, [])
    order, d = degeneracy_order(edgeless)
    assert d == 0 and sorted(order) == [0, 1, 2]


def test_validate_cover_catches_bad_matchings():
    g = Graph.from_edges(2, [(0, 1)])
    ok = CorrespondenceCover.from_matchings(g, 2, {(0, 1): [(0, 0), (1, 1)]})
    assert validate_cover(ok) is None
    repeated = CorrespondenceCover.from_matchings(g, 2, {(0, 1): [(0, 0), (0, 1)]})
    assert validate_cover(repeated) is not None
    out_of_range = CorrespondenceCover.from_matchings(g, 2, {(0, 1): [(0, 2)]})
    assert validate_cover(out_of_range) is not None
    with pytest.raises(ValueError):
        CorrespondenceCover.from_matchings(g, 2, {(1, 0): []})
    g3 = Graph.from_edges(3, [(0, 1)])
    non_edge = CorrespondenceCover.from_matchings(g3, 2, {(0, 2): []})
    assert validate_cover(non_edge) is not None


def test_validate_packing_list_mode():
    g = Graph.from_edges(2, [(0, 1)])
    la = ListAssignment.from_lists([{1, 2}, {2, 3}])
    cover = list_to_cover(g, la)
    good = Packing.from_rows("list", [(1, 2), (2, 3)])
    assert validate_packing(cover, good) is None
    improper = Packing.from_rows("list", [(2, 2), (1, 3)])
    assert "edge" in validate_packing(cover, improper)
    not_disjoint = Packing.from_rows("list", [(1, 2), (1, 3)])
    assert validate_packing(cover, not_disjoint) is not None
    off_list = Packing.from_rows("list", [(1, 2), (5, 3)])
    assert validate_packing(cover, off_list) is not None


def test_validate_packing_cover_mode():
    g = Graph.from_edges(2, [(0, 1)])
    cover = CorrespondenceCover.from_matchings(g, 2, {(0, 1): [(0, 0), (1, 1)]})
    good = Packing.from_rows("cover", [(0, 1), (1, 0)])
    assert validate_packing(cover, good) is None
    conflicting = Packing.from_rows("cover", [(0, 0), (1, 1)])
    assert validate_packing(cover, conflicting) is not None


def test_conflicts_and_barred_slots():
    # P3 at k=3: edge (0,1) swaps slots 0 and 1 and pairs slot 2 with
    # itself, edge (1,2) matches only slot 0 of 1 with slot 2 of 2, and
    # the edge (0,2) is absent from P3
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cover = CorrespondenceCover.from_matchings(
        g, 3, {(0, 1): [(0, 1), (1, 0), (2, 2)], (1, 2): [(0, 2)]}
    )
    assert cover.conflicts == (
        {1: {0: 1, 1: 0, 2: 2}},
        {0: {0: 1, 1: 0, 2: 2}, 2: {2: 0}},
        {1: {0: 2}},
    )
    assert cover.conflicts is cover.conflicts  # computed once
    for v in range(g.n):
        for u, edge in cover.conflicts[v].items():
            assert sorted(edge.items()) == sorted(cover.matching(u, v))
    columns = [(2, 0, 1), None, (1, 2, 0)]  # slots of 0 and 2 per colouring
    # colouring 0: 0 bars slot 2 of 1, 2 bars nothing; colouring 1: 0 bars
    # slot 1, 2 bars slot 0; colouring 2: 0 bars slot 0, 2 bars nothing
    assert barred_slots(3, cover.conflicts[1], [0, 2], columns) == [
        0b100,
        0b011,
        0b001,
    ]
    assert barred_slots(3, cover.conflicts[1], [2], columns) == [0, 0b001, 0]
    # an edge with the empty matching bars nothing
    empty = CorrespondenceCover.from_matchings(g, 3, {(0, 1): []})
    assert empty.conflicts == ({}, {}, {})


def test_slot_colour_conversions_invert():
    la = ListAssignment.from_lists([{1, 5}, {2, 7}])
    p = Packing.from_rows("list", [(1, 7), (5, 2)])
    slots = packing_to_slots(la, p)
    assert slots.mode == "cover"
    assert slots_to_colours(la, slots) == p


def test_instance_json_round_trip_list_mode():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    la = ListAssignment.from_lists([{1, 2}, {2, 3}, {1, 3}])
    obj = instance_to_obj((g, la))
    g2, la2 = instance_from_obj(json.loads(dumps(obj)))
    assert g2 == g and la2 == la


def test_instance_json_round_trip_cover_mode():
    g = Graph.from_edges(2, [(0, 1)])
    cover = CorrespondenceCover.from_matchings(g, 2, {(0, 1): [(0, 1), (1, 0)]})
    obj = instance_to_obj(cover)
    cover2 = instance_from_obj(json.loads(dumps(obj)))
    assert cover2 == cover


def test_packing_json_round_trip():
    p = Packing.from_rows("cover", [(0, 1), (1, 0)])
    assert packing_from_obj(packing_to_obj(p)) == p
    for entry in (True, 1.0):
        with pytest.raises(InstanceFormatError):
            packing_from_obj({"k": 1, "mode": "cover", "colourings": [[entry]]})


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2, "edges": [[0, 1]]},
        {"n": 2, "edges": [[0, 1]], "lists": [[1, 2]]},
        {"n": 2, "edges": [[0, 5]], "lists": [[1], [2]]},
        {"n": 2, "edges": [[0, 1]], "k": 2, "matchings": {"0-1": [[0, 5]]}},
        [],
        {"n": 2, "edges": [[0, 1]], "lists": [[True, 2], [1, 2]]},
        {"n": 2, "edges": [[0, 1]], "lists": [[1.5, 2], [1, 2]]},
        {"n": 2, "edges": [[0, 1]], "lists": [[1], [2]], "k": 1, "matchings": {}},
        {"n": 2.7, "edges": [[0, 1]], "lists": [[1, 2], [1, 2]]},
        {"n": 2, "edges": [[0, True]], "lists": [[1, 2], [1, 2]]},
        {"n": -1, "edges": [], "k": 2, "matchings": {}},
        {"n": 2, "edges": [[0, 1]], "k": 2.5, "matchings": {}},
        {"n": 2, "edges": [[0, 1]], "k": 2, "matchings": {"0-1": [[True, 1]]}},
        {"n": 2, "edges": [[0, 1]], "k": 2, "matchings": {"0-1": [[0, 1.5]]}},
        {"n": 2, "edges": [], "lists": [[], []]},
        {"n": 2, "edges": [], "lists": [[1], [1, 2]]},
    ],
)
def test_malformed_instances_rejected(obj):
    with pytest.raises(InstanceFormatError):
        instance_from_obj(obj)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph.from_edges(n, edges)


@given(graphs())
def test_degeneracy_order_is_a_permutation_and_d_bounded(g):
    order, d = degeneracy_order(g)
    assert sorted(order) == list(range(g.n))
    assert 0 <= d <= max(g.degrees(), default=0) if g.n else d == 0
    # every vertex has at most d neighbours later in the order
    pos = {v: i for i, v in enumerate(order)}
    nbrs = g.neighbours()
    for v in range(g.n):
        assert sum(1 for u in nbrs[v] if pos[u] < pos[v]) <= d


@given(graphs(max_n=6), st.integers(1, 3), st.randoms(use_true_random=False))
def test_list_instance_round_trip_property(g, k, rnd):
    lists = ListAssignment.from_lists(
        [rnd.sample(range(10), k) for _ in range(g.n)]
    )
    obj = json.loads(dumps(instance_to_obj((g, lists))))
    assert instance_from_obj(obj) == (g, lists)


def quadratic_degeneracy_order(g):
    """Reference peel: remove the vertex of least remaining degree, the
    smaller one on ties, by a scan of every vertex at each step."""
    nbrs = g.neighbours()
    deg = [len(s) for s in nbrs]
    alive = set(range(g.n))
    removal, d = [], 0
    while alive:
        v = min(alive, key=lambda w: (deg[w], w))
        d = max(d, deg[v])
        alive.remove(v)
        removal.append(v)
        for w in nbrs[v] & alive:
            deg[w] -= 1
    return tuple(reversed(removal)), d


def test_degeneracy_order_matches_quadratic_reference():
    rng = random.Random(7)
    graphs_ = [Graph.from_edges(5, []), Graph.from_edges(0, [])]
    graphs_.append(Graph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)]))
    for n in (2, 5, 12, 40, 150):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for density in (0.1, 0.3, 0.7):
            graphs_.append(
                Graph.from_edges(n, [e for e in pairs if rng.random() < density])
            )
    for g in graphs_:
        assert degeneracy_order(g) == quadratic_degeneracy_order(g)
    # a cycle ties at every step, so the order is fixed by the tie rule
    assert degeneracy_order(graphs_[2]) == ((8, 7, 6, 5, 4, 3, 2, 1, 0), 2)


def test_conflicts_check_the_cover_in_edge_order():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    # both edges are bad; the smaller one is reported whatever the key order
    bad = CorrespondenceCover.from_matchings(
        g, 2, {(1, 2): [(0, 0), (1, 0)], (0, 1): [(0, 5), (1, 5)]}
    )
    message = "edge (0,1): slot pair (0,5) out of range 0..1"
    for _ in range(2):  # nothing is cached on failure
        with pytest.raises(ValueError) as exc:
            bad.conflicts
        assert str(exc.value) == message
    assert validate_cover(bad) == message
    twice = CorrespondenceCover.from_matchings(g, 2, {(1, 2): [(0, 0), (1, 0)]})
    assert validate_cover(twice) == "edge (1,2): slot 0 of 2 matched twice"
    assert validate_cover(CorrespondenceCover.from_matchings(g, 0, {})) == (
        "fold k=0 must be positive"
    )


def _is_list_packing(g, lists, p):
    """Independent reference: on-list, disjoint and proper, on colours."""
    rows = p.colourings
    return (
        all(row[v] in lists.lists[v] for row in rows for v in range(g.n))
        and all(len({row[v] for row in rows}) == len(rows) for v in range(g.n))
        and all(row[u] != row[v] for row in rows for u, v in g.edges)
    )


def _slot_image(lists, p):
    """packing_to_slots, except that an off-list colour becomes slot k."""
    k = len(lists.lists[0])
    return Packing.from_rows(
        "cover",
        [
            [lst.index(c) if c in lst else k for lst, c in zip(lists.lists, row)]
            for row in p.colourings
        ],
    )


def test_list_packings_are_checked_like_their_slot_images():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n, k = rng.randint(2, 6), rng.randint(1, 3)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5])
        lists = ListAssignment.from_lists(
            [rng.sample(range(k + 2), k) for _ in range(n)]
        )
        cover = list_to_cover(g, lists)
        columns = [rng.sample(lst, k) for lst in lists.lists]
        candidates = [Packing.from_columns("list", k, columns)]
        off_list = [list(c) for c in columns]
        off_list[rng.randrange(n)][rng.randrange(k)] = k + 2
        candidates.append(Packing.from_columns("list", k, off_list))
        if k > 1:
            repeated = [list(c) for c in columns]
            v = rng.randrange(n)
            repeated[v][1] = repeated[v][0]
            candidates.append(Packing.from_columns("list", k, repeated))
        shared = [
            (u, v)
            for u, v in sorted(g.edges)
            if set(lists.lists[u]) & set(lists.lists[v])
        ]
        if shared:
            # colouring 0 gives u the colour it gives v: improper, but
            # every column stays a permutation of its list
            u, v = rng.choice(shared)
            c = rng.choice(sorted(set(lists.lists[u]) & set(lists.lists[v])))
            improper = [list(col) for col in columns]
            i, j = improper[v].index(c), improper[u].index(c)
            improper[u][i], improper[u][j] = improper[u][j], improper[u][i]
            candidates.append(Packing.from_columns("list", k, improper))
            assert not _is_list_packing(g, lists, candidates[-1])
        for p in candidates:
            ok = _is_list_packing(g, lists, p)
            seen[ok] += 1
            assert (validate_packing(cover, p) is None) == ok
            slots = _slot_image(lists, p)
            assert (validate_packing(cover, slots) is None) == ok
            if p is not candidates[1]:  # every colour is on its list
                assert slots == packing_to_slots(lists, p)
    assert seen[True] > 20 and seen[False] > 100


def test_list_to_cover_matchings_are_normalised():
    # list_to_cover skips from_matchings' normalisation; it must not need it
    rng = random.Random(3)
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5])
        lists = ListAssignment.from_lists(
            [rng.sample(range(k + 3), k) for _ in range(n)]
        )
        cover = list_to_cover(g, lists)
        normalised = CorrespondenceCover.from_matchings(g, k, cover.matchings)
        assert list(cover.matchings.items()) == list(normalised.matchings.items())
        assert cover.lists == lists
