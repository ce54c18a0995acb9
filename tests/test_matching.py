import hashlib
import json
import random

from hypothesis import given, strategies as st

from listpack.matching import (
    hall_violator,
    max_bipartite_matching,
    perfect_matching,
)


def masks(adj):
    """Row bitmasks of adjacency lists: bit w of masks[u] iff w in adj[u]."""
    return [sum(1 << w for w in row) for row in adj]


def test_perfect_matching_identity_preferring():
    assert perfect_matching([0b11, 0b11], 2) == [0, 1]
    assert perfect_matching([0b10, 0b01], 2) == [1, 0]
    assert perfect_matching([0b01, 0b01], 2) is None


def test_max_matching_partial():
    match_left, match_right = max_bipartite_matching([0b01, 0b01, 0b10], 2)
    assert match_left.count(None) == 1
    assert sorted(m for m in match_left if m is not None) == [0, 1]
    assert match_right[0] in (0, 1)


def test_hall_violator_on_deficient_instance():
    adj = [[0], [0], [1, 2]]
    violator = hall_violator(masks(adj), 3)
    assert violator is not None
    s, ns = violator
    assert len(ns) < len(s)
    assert all(set(adj[u]) <= ns for u in s)


def test_hall_violator_none_when_saturated():
    assert hall_violator([0b01, 0b10], 2) is None


@st.composite
def bipartite_adjacency(draw):
    n_left = draw(st.integers(1, 6))
    n_right = draw(st.integers(1, 6))
    adj = [
        sorted(draw(st.sets(st.integers(0, n_right - 1))))
        for _ in range(n_left)
    ]
    return adj, n_right


@given(bipartite_adjacency())
def test_matching_is_consistent_and_maximal_vs_brute_force(case):
    adj, n_right = case
    match_left, match_right = max_bipartite_matching(masks(adj), n_right)
    for u, w in enumerate(match_left):
        if w is not None:
            assert w in adj[u] and match_right[w] == u
    size = sum(1 for m in match_left if m is not None)

    # brute force maximum via recursion
    def best(u, used):
        if u == len(adj):
            return 0
        result = best(u + 1, used)
        for w in adj[u]:
            if w not in used:
                result = max(result, 1 + best(u + 1, used | {w}))
        return result

    assert size == best(0, frozenset())


@given(bipartite_adjacency())
def test_hall_violator_iff_no_perfect_matching(case):
    adj, n_right = case
    violator = hall_violator(masks(adj), n_right)
    if perfect_matching(masks(adj), n_right) is None:
        s, ns = violator
        assert len(ns) < len(s)
        assert ns == {w for u in s for w in adj[u]}
    else:
        assert violator is None


def test_matchings_are_pinned():
    # sha256 prefix of the (match_left, match_right) pairs of 5,000
    # seeded mask sets, recorded before the matcher's greedy first pass
    rng = random.Random(17)
    results = []
    for _ in range(5000):
        k = rng.randint(1, 8)
        rows = rng.randint(0, 8)
        mask_set = [rng.getrandbits(k) & rng.getrandbits(k) for _ in range(rows)]
        results.append(max_bipartite_matching(mask_set, k))
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()[:16]
    assert digest == "25c3a33c4c459c96"
