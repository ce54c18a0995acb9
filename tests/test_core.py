import json

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
