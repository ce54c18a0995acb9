from collections import Counter

import pytest

from listpack.core import (
    CorrespondenceCover,
    Graph,
    ListAssignment,
    list_to_cover,
    validate_packing,
)
from listpack.generators import gen_random_bipartite_cover
from listpack.probabilistic import (
    FractionalColoring,
    fc_from_bipartition,
    fc_from_colouring,
    pack_bipartite_lll,
    pack_fractional,
    validate_fractional,
)


def test_validate_fractional():
    g = Graph.from_edges(2, [(0, 1)])
    good = FractionalColoring.from_sets(2, 1, [{0}, {1}])
    assert validate_fractional(g, good) is None
    clash = FractionalColoring.from_sets(2, 1, [{0}, {0}])
    assert "intersect" in validate_fractional(g, clash)
    wrong_size = FractionalColoring.from_sets(3, 2, [{0, 1}, {2}])
    assert validate_fractional(g, wrong_size) is not None
    out_of_range = FractionalColoring.from_sets(2, 1, [{0}, {5}])
    assert validate_fractional(g, out_of_range) is not None


def test_fc_helpers():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    fc = fc_from_bipartition(c6)
    assert fc.a == 2 and fc.b == 1
    assert validate_fractional(c6, fc) is None
    with pytest.raises(ValueError):
        fc_from_bipartition(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    fc3 = fc_from_colouring([0, 1, 2, 0])
    assert fc3.a == 3 and fc3.assignment[3] == frozenset({0})


def test_pack_fractional_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    fc = FractionalColoring.from_sets(2, 1, [{0}, {1}])
    lists = ListAssignment.from_lists([{1, 2}, {1, 2}])
    p = pack_fractional(g, lists, fc, max_rounds=200, seed=1)
    assert p is not None
    assert validate_packing(list_to_cover(g, lists), p) is None


def test_pack_fractional_edgeless_succeeds_first_round():
    g = Graph.from_edges(3, [])
    fc = FractionalColoring.from_sets(2, 2, [{0, 1}] * 3)
    lists = ListAssignment.from_lists([{5, 6}, {5, 6}, {7, 8}])
    assert pack_fractional(g, lists, fc, max_rounds=1, seed=0) is not None


def test_pack_fractional_rejects_invalid_fc():
    g = Graph.from_edges(2, [(0, 1)])
    bad = FractionalColoring.from_sets(2, 1, [{0}, {0}])
    with pytest.raises(ValueError):
        pack_fractional(g, ListAssignment.from_lists([{1}, {2}]), bad, seed=0)


def test_pack_fractional_c6_baseline():
    # empirical baseline: 100/100 seeds succeed within 50 rounds on C6
    # with 5-lists and the bipartition (2,1)-colouring
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    fc = fc_from_bipartition(g)
    lists = ListAssignment.from_lists([tuple(range(1, 6))] * 6)
    cover = list_to_cover(g, lists)
    for seed in range(100):
        p = pack_fractional(g, lists, fc, max_rounds=50, seed=seed)
        assert p is not None
        assert validate_packing(cover, p) is None


def test_pack_fractional_deterministic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    fc = fc_from_bipartition(g)
    lists = ListAssignment.from_lists([tuple(range(1, 5))] * 4)
    a = pack_fractional(g, lists, fc, max_rounds=30, seed=12)
    b = pack_fractional(g, lists, fc, max_rounds=30, seed=12)
    assert a == b


def star_cover(k):
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    matchings = {(0, j): [(i, i) for i in range(k)] for j in (1, 2, 3)}
    return CorrespondenceCover.from_matchings(g, k, matchings)


def test_pack_bipartite_lll_star():
    cover = star_cover(4)
    p = pack_bipartite_lll(cover, seed=0)
    assert p is not None
    assert validate_packing(cover, p) is None


def test_pack_bipartite_lll_empty_matchings_zero_resamples():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    cover = CorrespondenceCover.from_matchings(g, 3, {})
    assert pack_bipartite_lll(cover, max_resamples=0, seed=0) is not None


def test_pack_bipartite_lll_rejects_odd_cycle():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    cover = CorrespondenceCover.from_matchings(g, 2, {})
    with pytest.raises(ValueError):
        pack_bipartite_lll(cover, seed=0)


def test_pack_bipartite_lll_gives_up_within_budget():
    # an unpackable cover: K_{2,6} with every 3-slot matching combination
    from listpack.generators import gen_kab_cover

    cover = gen_kab_cover()
    assert pack_bipartite_lll(cover, max_resamples=20, seed=0) is None


def test_pack_bipartite_lll_matches_each_a_vertex_once(monkeypatch):
    # a scan with no bad vertex leaves the packing in its columns, so a
    # run without a resample calls the matcher once per A vertex
    import listpack.constructive
    import listpack.probabilistic
    from listpack.matching import perfect_matching

    calls = []

    def counted(masks, k):
        calls.append(k)
        return perfect_matching(masks, k)

    for module in (listpack.constructive, listpack.probabilistic):
        monkeypatch.setattr(module, "perfect_matching", counted)
    cover = gen_random_bipartite_cover(10, 3, 4, 4)
    bad = []
    p = pack_bipartite_lll(cover, seed=4, on_resample=bad.append)
    assert p is not None and bad == []
    assert len(calls) == 10  # |A|


def test_pack_bipartite_lll_deterministic():
    cover = star_cover(4)
    assert pack_bipartite_lll(cover, seed=5) == pack_bipartite_lll(cover, seed=5)


def test_b_side_marginal_is_uniform():
    """With no conflicts and no resampling, each B vertex's slot ordering
    is a uniform permutation; chi-squared over 10^4 samples at k=3."""
    g = Graph.from_edges(2, [(0, 1)])
    cover = CorrespondenceCover.from_matchings(g, 3, {})
    counts = Counter()
    samples = 10_000
    for seed in range(samples):
        p = pack_bipartite_lll(cover, max_resamples=0, seed=seed)
        # vertex 1 is the B side (both parts have degree 1; part of
        # vertex 0 sorts first and plays A)
        counts[tuple(row[1] for row in p.colourings)] += 1
    assert len(counts) == 6
    expected = samples / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 99.9% quantile of chi-squared with 5 degrees of freedom
    assert chi2 < 20.52


def test_pack_bipartite_lll_baseline_degree8():
    # empirical baseline: random 8-regular bipartite covers with |A| =
    # |B| = 40 and k = 9 all pack within the default resample budget
    successes = 0
    for seed in range(25):
        cover = gen_random_bipartite_cover(40, 8, 9, 1000 + seed)
        p = pack_bipartite_lll(cover, seed=seed)
        if p is not None:
            assert validate_packing(cover, p) is None
            successes += 1
    assert successes == 25
