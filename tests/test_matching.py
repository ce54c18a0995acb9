import hashlib
import json
import random

from hypothesis import given, strategies as st

from listpack.matching import hall_violator, perfect_matching


def masks(adj):
    """Row bitmasks of adjacency lists: bit w of masks[u] iff w in adj[u]."""
    return [sum(1 << w for w in row) for row in adj]


def test_perfect_matching_identity_preferring():
    assert perfect_matching([0b11, 0b11], 2) == [0, 1]
    assert perfect_matching([0b10, 0b01], 2) == [1, 0]
    assert perfect_matching([0b01, 0b01], 2) is None


def test_hall_violator_on_deficient_instance():
    adj = [[0], [0], [1, 2]]
    violator = hall_violator(masks(adj), 3)
    assert violator is not None
    s, ns = violator
    assert len(ns) == len(s) - 1
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
    match_left = perfect_matching(masks(adj), n_right)
    if match_left is not None:
        assert all(w in adj[u] for u, w in enumerate(match_left))
        assert len(set(match_left)) == len(adj)

    # brute force maximum via recursion
    def best(u, used):
        if u == len(adj):
            return 0
        result = best(u + 1, used)
        for w in adj[u]:
            if w not in used:
                result = max(result, 1 + best(u + 1, used | {w}))
        return result

    assert (match_left is not None) == (best(0, frozenset()) == len(adj))


@given(bipartite_adjacency())
def test_hall_violator_iff_no_perfect_matching(case):
    adj, n_right = case
    violator = hall_violator(masks(adj), n_right)
    if perfect_matching(masks(adj), n_right) is None:
        s, ns = violator
        assert len(ns) == len(s) - 1
        assert ns == {w for u in s for w in adj[u]}
    else:
        assert violator is None


def test_matchings_are_pinned():
    # sha256 prefix of the perfect matchings (None where there is none;
    # 1,659 of the sets have one) of 5,000 seeded mask sets, recorded
    # with the recursive search the loop replaced
    rng = random.Random(17)
    results = []
    for _ in range(5000):
        k = rng.randint(1, 8)
        rows = rng.randint(0, 8)
        mask_set = [rng.getrandbits(k) & rng.getrandbits(k) for _ in range(rows)]
        results.append(perfect_matching(mask_set, k))
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()[:16]
    assert digest == "ab68ded29df368d6"


def chain(n):
    """Row i is {i, i + 1} for i < n - 1 and the last row is {0}: the
    last row's only augmenting path runs through every other row."""
    return [0b11 << i for i in range(n - 1)] + [1]


def test_perfect_matching_runs_past_the_recursion_limit():
    assert perfect_matching(chain(5000), 5000) == list(range(1, 5000)) + [0]


def test_hall_violator_runs_past_the_recursion_limit():
    # the chain's last row takes column 0 through all 5,000 rows, and a
    # second {0} row is then the first that stays unmatched
    assert hall_violator(chain(5000) + [1], 5001) == ({4999, 5000}, {0})
    # without the free end, the last row's search fails through every row
    rows = chain(5000)
    rows[4998] = 1 << 4998
    assert hall_violator(rows, 4999) == (set(range(5000)), set(range(4999)))
