import hashlib
import json
import random
from collections import Counter

import pytest

from listpack.constructive import (
    PackingError,
    bipartite_sides,
    bipartition,
    pack_augment,
    pack_bipartite_ordered,
    pack_complete,
    pack_degenerate,
)
from listpack.core import (
    CorrespondenceCover,
    Graph,
    ListAssignment,
    degeneracy_order,
    list_to_cover,
    validate_packing,
)
from listpack.exact import find_packing
from listpack.generators import gen_random_bipartite_cover
from listpack.probabilistic import (
    fc_from_bipartition,
    pack_bipartite_lll,
    pack_fractional,
)


def random_graph(rng, n, p=0.5):
    return Graph.from_edges(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


def random_full_cover(rng, g, k):
    matchings = {}
    for u, v in sorted(g.edges):
        perm = list(range(k))
        rng.shuffle(perm)
        matchings[(u, v)] = [(i, perm[i]) for i in range(k)]
    return CorrespondenceCover.from_matchings(g, k, matchings)


# ---------------------------------------------------------------------------
# pack_degenerate
# ---------------------------------------------------------------------------


def test_degenerate_packs_random_covers_at_twice_degeneracy():
    rng = random.Random(101)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 9))
        _, d = degeneracy_order(g)
        k = max(2 * d, 1)
        cover = random_full_cover(rng, g, k)
        p = pack_degenerate(cover)
        assert validate_packing(cover, p) is None


def test_degenerate_handles_partial_matchings():
    rng = random.Random(5)
    g = random_graph(rng, 7, 0.6)
    _, d = degeneracy_order(g)
    k = max(2 * d, 1)
    matchings = {}
    for u, v in sorted(g.edges):
        size = rng.randint(0, k)
        matchings[(u, v)] = list(
            zip(rng.sample(range(k), size), rng.sample(range(k), size))
        )
    cover = CorrespondenceCover.from_matchings(g, k, matchings)
    p = pack_degenerate(cover)
    assert validate_packing(cover, p) is None


def test_degenerate_rejects_small_k():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cover = random_full_cover(random.Random(0), g, 3)
    with pytest.raises(ValueError):
        pack_degenerate(cover)


# ---------------------------------------------------------------------------
# pack_complete
# ---------------------------------------------------------------------------


def random_clique_lists(rng, n, k):
    """k-lists for K_n where every colour is on at most k lists."""
    ncol = rng.randint(k, n * k)
    caps = Counter({c: k for c in range(1, ncol + 1)})
    lists = []
    for _ in range(n):
        avail = [c for c in caps if caps[c] > 0]
        if len(avail) < k:
            return None
        chosen = rng.sample(avail, k)
        for c in chosen:
            caps[c] -= 1
        lists.append(chosen)
    return ListAssignment.from_lists(lists)


def test_complete_packs_random_instances():
    rng = random.Random(202)
    done = 0
    while done < 80:
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        la = random_clique_lists(rng, n, k)
        if la is None:
            continue
        done += 1
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n)]
        )
        p = pack_complete(la)
        assert p.k == k
        assert validate_packing(list_to_cover(g, la), p) is None


def test_complete_identical_lists_give_latin_square():
    la = ListAssignment.from_lists([(1, 2, 3)] * 3)
    p = pack_complete(la)
    # rows and columns are both permutations of the colour set
    for row in p.colourings:
        assert sorted(row) == [1, 2, 3]
    for v in range(3):
        assert sorted(row[v] for row in p.colourings) == [1, 2, 3]


def test_complete_rejects_bad_inputs():
    with pytest.raises(ValueError):
        # k = 3 lists on n = 2 vertices
        pack_complete(ListAssignment.from_lists([(1, 2, 3)] * 2))
    with pytest.raises(ValueError):
        # colour 1 on three lists with k = 2
        pack_complete(ListAssignment.from_lists([(1, 2), (1, 3), (1, 4)]))


def test_complete_runs_past_the_recursion_limit():
    # 2,201 two-colour lists, list i sharing one colour with each of
    # lists i - 1 and i + 1, with the middle list moved to the end: each
    # colour is on at most 2 lists, and the matchings augment along paths
    # longer than the default recursion limit
    a = 1100
    p = [10**6 - i for i in range(a + 1)] + [10**6 + 1 + j for j in range(a + 1)]
    lists = [sorted(p[i : i + 2]) for i in range(2 * a + 1)]
    lists.append(lists.pop(a))
    packing = pack_complete(ListAssignment.from_lists(lists))
    # proper on K_2201: no colour twice in a colouring
    assert all(len(set(row)) == len(lists) for row in packing.colourings)
    for v, lst in enumerate(lists):
        assert sorted(row[v] for row in packing.colourings) == lst


# ---------------------------------------------------------------------------
# pack_bipartite_ordered
# ---------------------------------------------------------------------------


def random_bipartite(rng, na, nb, p=0.6):
    n = na + nb
    edges = [
        (a, na + b) for a in range(na) for b in range(nb) if rng.random() < p
    ]
    return Graph.from_edges(n, edges), na


def test_bipartite_ordered_packs_and_keeps_b_side_sorted():
    rng = random.Random(303)
    for _ in range(80):
        g, na = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 5))
        deg = g.degrees()
        d_a = max(deg[:na], default=0)
        d_b = max(deg[na:], default=0)
        k = min(d_a, d_b) + 1
        la = ListAssignment.from_lists(
            [sorted(rng.sample(range(20), k)) for _ in range(g.n)]
        )
        p = pack_bipartite_ordered(g, la)
        assert validate_packing(list_to_cover(g, la), p) is None
        # the side playing B gets the sorted packing: colouring i takes
        # the i-th smallest list colour
        b_vertices = (
            range(na, g.n) if d_a <= d_b else range(na)
        )
        for b in b_vertices:
            assert [row[b] for row in p.colourings] == list(la.lists[b])


def test_bipartite_ordered_rejects_odd_cycle_and_small_k():
    g5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    la = ListAssignment.from_lists([(1, 2, 3)] * 5)
    with pytest.raises(ValueError):
        pack_bipartite_ordered(g5, la)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    # the leaves side has the smaller maximum degree (1), so 2-lists meet
    # the k >= Delta_A + 1 precondition even though the centre has degree 3
    star_lists = ListAssignment.from_lists([(1, 2), (1, 3), (4, 5), (6, 7)])
    ok = pack_bipartite_ordered(star, star_lists)
    assert validate_packing(list_to_cover(star, star_lists), ok) is None


def test_bipartition_splits_components():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    parts = bipartition(g)
    assert parts is not None
    assert sorted(parts[0] + parts[1]) == [0, 1, 2, 3]


def test_bipartition_rejects_an_odd_cycle():
    c5 = Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
    with pytest.raises(ValueError, match="not bipartite"):
        bipartition(c5)


# ---------------------------------------------------------------------------
# pack_augment
# ---------------------------------------------------------------------------


def test_augment_packs_random_covers_and_progresses():
    rng = random.Random(404)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        _, d = degeneracy_order(g)
        k = 1 + g.max_degree() + (1 + d)
        cover = random_full_cover(rng, g, k)
        progress = []
        p = pack_augment(cover, on_round=progress.append)
        assert validate_packing(cover, p) is None
        assert all(b > a for a, b in zip(progress, progress[1:]))
        assert progress[-1] == g.n * k


def test_augment_accepts_caller_bound_and_rejects_small_k():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cover = random_full_cover(random.Random(1), g, 5)
    # chi_c_bound = 2 (paths are 1-degenerate): 1 + 2 + 2 = 5 is enough
    p = pack_augment(cover, chi_c_bound=2)
    assert validate_packing(cover, p) is None
    with pytest.raises(ValueError):
        pack_augment(cover, chi_c_bound=3)


def test_augment_edgeless_graph():
    g = Graph.from_edges(3, [])
    cover = CorrespondenceCover.from_matchings(g, 2, {})
    p = pack_augment(cover)
    assert validate_packing(cover, p) is None


def test_augment_runs_past_the_recursion_limit():
    # 1,100 vertices, more than the default recursion limit, each round
    # one transversal search over all of them
    g = Graph.from_edges(1100, [])
    cover = CorrespondenceCover.from_matchings(g, 2, {})
    p = pack_augment(cover)
    assert validate_packing(cover, p) is None


def test_augment_packs_a_long_path_in_few_rounds():
    # each round's transversal takes the empty slots of the vertices
    # missing its colour first, so a round fills that colour almost
    # everywhere: 8 rounds here, where lowest-slot-first took 4,502
    n, k = 1500, 5
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    cover = random_full_cover(random.Random(1), g, k)
    progress = []
    p = pack_augment(cover, on_round=progress.append)
    assert validate_packing(cover, p) is None
    assert progress[-1] == n * k and len(progress) <= 2 * k


def test_augment_sweep_over_partial_and_perfect_covers():
    rng = random.Random(2021)
    for _ in range(150):
        if rng.random() < 0.5:
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.6))
        else:
            g = capped_degenerate_graph(rng, rng.randint(2, 40), 2, 5)
        d = g.peel[1]
        k = 1 + g.max_degree() + d + 1 + rng.randint(0, 1)
        make = random_partial_cover if rng.random() < 0.5 else random_full_cover
        cover = make(rng, g, k)
        progress = []
        p = pack_augment(cover, chi_c_bound=d + 1, on_round=progress.append)
        assert validate_packing(cover, p) is None
        assert all(b > a for a, b in zip(progress, progress[1:]))
        assert progress[-1] == g.n * k


@pytest.mark.parametrize("seed", [1107, 4079])
def test_augment_moves_red_from_a_coloured_slot_to_an_empty_one(seed):
    # these covers (n = 11, k = 6 and n = 18, k = 9) have rounds whose
    # transversal moves red from a coloured slot to an empty one at some
    # vertex, emptying the first; were that slot left marked coloured,
    # the rounds would stall or the packing would not validate
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 40), rng.uniform(0.05, 0.5))
    chi = rng.randint(1, 2)
    cover = random_full_cover(rng, g, 1 + g.max_degree() + chi)
    progress = []
    p = pack_augment(cover, chi_c_bound=chi, on_round=progress.append)
    assert validate_packing(cover, p) is None
    assert progress[-1] == g.n * cover.k


# ---------------------------------------------------------------------------
# outputs pinned across rewrites of the conflict maps
# ---------------------------------------------------------------------------


def random_partial_cover(rng, g, k):
    # about a fifth of the edges carry the empty matching, the rest keep
    # each slot pair of a random permutation with probability 0.6
    matchings = {}
    for u, v in sorted(g.edges):
        perm = list(range(k))
        rng.shuffle(perm)
        keep = 0.0 if rng.random() < 0.2 else 0.6
        matchings[(u, v)] = [(i, perm[i]) for i in range(k) if rng.random() < keep]
    return CorrespondenceCover.from_matchings(g, k, matchings)


def random_lists(rng, n, k, colours):
    return ListAssignment.from_lists(
        [rng.sample(range(colours), k) for _ in range(n)]
    )


def random_bipartite_lists(rng, side=6, p=0.4):
    # k = Delta_A + 1 colours per list out of k + 3, so lists overlap
    edges = [(a, side + b) for a in range(side) for b in range(side)]
    g = Graph.from_edges(2 * side, [e for e in edges if rng.random() < p])
    k = bipartite_sides(g)[2] + 1
    lists = [rng.sample(range(k + 3), k) for _ in range(g.n)]
    return g, ListAssignment.from_lists(lists)


def pinned_covers(seed):
    """The degenerate cover, the augment cover and its chi_c_bound that
    the pins below are taken on."""
    rng = random.Random(seed)
    g = random_graph(rng, 12, 0.3)
    degenerate = random_partial_cover(rng, g, 2 * g.peel[1])
    g = random_graph(rng, 9, 0.35)
    d = g.peel[1]
    return degenerate, random_partial_cover(rng, g, 2 + g.max_degree() + d), d + 1


def capped_degenerate_graph(rng, n, d, cap):
    # every vertex joins at most d earlier ones of degree below cap
    deg = [0] * n
    edges = []
    for v in range(1, n):
        pool = [u for u in range(v) if deg[u] < cap]
        for u in rng.sample(pool, min(len(pool), d)):
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


def digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


#: sha256 prefixes of the packings' colourings, recorded before the
#: packers shared core.barred_slots and CorrespondenceCover.conflicts;
#: fractional's (C6, 5-of-8 lists, 20 seeds) before pack_fractional
#: built its row masks without BinaryMatrix.  bip-ordered's (20
#: instances in one digest) was re-recorded when its A vertices began
#: matching colourings to slots rather than slots to colourings: the
#: bipartite graph is the same, but Kuhn's algorithm returns another of
#: its perfect matchings on most instances.  The test after these pins
#: checks what must not move: sorted B columns and valid packings.
#: augment's were re-recorded when its transversal search began trying
#: the empty slots of each vertex missing the round's colour first: any
#: independent transversal in the allowed slots is a valid round, and
#: the new ones fill a colour at almost every vertex at once
PINNED_PACKINGS = {
    ("degenerate", 1): "26f154dba732ffa6",
    ("augment", 1): "70865f2278342116",
    ("bip-lll", 1): "c5241573e921d529",
    ("degenerate", 2): "3dea2b6e4acfed8a",
    ("augment", 2): "15f72536e7ca7e30",
    ("bip-lll", 2): "c335ef33d7c04069",
    ("degenerate", 3): "ee8c994bedcfd1dc",
    ("augment", 3): "1adfd6619a678e49",
    ("bip-lll", 3): "d81526305eb8088c",
    ("bip-ordered", "1-20"): "91c46f6cb75a5966",
    ("fractional", "1-20"): "b1b1dc4e1535e26b",
}


def test_packer_outputs_are_pinned():
    got = {}
    for seed in (1, 2, 3):
        degenerate, augment, bound = pinned_covers(seed)
        got["degenerate", seed] = digest(pack_degenerate(degenerate).colourings)
        packing = pack_augment(augment, chi_c_bound=bound)
        got["augment", seed] = digest(packing.colourings)
        cover = gen_random_bipartite_cover(10, 3, 4, seed)
        got["bip-lll", seed] = digest(pack_bipartite_lll(cover, seed=seed).colourings)
    got["bip-ordered", "1-20"] = digest(
        [
            pack_bipartite_ordered(*random_bipartite_lists(random.Random(s))).colourings
            for s in range(1, 21)
        ]
    )
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    fc = fc_from_bipartition(c6)
    got["fractional", "1-20"] = digest(
        [
            pack_fractional(
                c6, random_lists(random.Random(s), 6, 5, 8), fc, seed=s
            ).colourings
            for s in range(1, 21)
        ]
    )
    assert got == PINNED_PACKINGS


def test_bipartite_ordered_pinned_instances_stay_sorted_and_valid():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    instances = [random_bipartite_lists(random.Random(s)) for s in range(1, 21)]
    instances.append((c4, ListAssignment.from_lists([[1, 2, 3]] * 4)))
    for g, lists in instances:
        p = pack_bipartite_ordered(g, lists)
        assert validate_packing(list_to_cover(g, lists), p) is None
        # colouring i gives every B vertex its i-th smallest colour
        for b in bipartite_sides(g)[1]:
            assert [row[b] for row in p.colourings] == list(lists.lists[b])


#: sha256 prefix of the bad vertices pack_bipartite_lll passes to
#: on_resample and of its answers on 40 seeded covers where every run
#: resamples (2,524 resamples in all) and 20 runs give up
PINNED_LLL_RESAMPLES = "1da668d860c4f3c0"


def test_lll_resamples_are_pinned():
    runs = []
    for s in range(1, 41):
        bad = []
        cover = gen_random_bipartite_cover(10, 4, 4, s)
        p = pack_bipartite_lll(cover, seed=s, on_resample=bad.append)
        runs.append([bad, None if p is None else p.colourings])
    assert digest(runs) == PINNED_LLL_RESAMPLES


#: sha256 prefix of pack_complete's packings of 20 clique list
#: assignments (n <= 9, seed 150), recorded before its rich-colour swap
#: became a worklist; 20 of their 58 stages swap
PINNED_COMPLETE = "82e048307b28c0ed"


def test_complete_packings_are_pinned():
    rng = random.Random(150)
    packings = []
    while len(packings) < 20:
        n = rng.randint(1, 9)
        la = random_clique_lists(rng, n, rng.randint(1, n))
        if la is not None:
            packings.append(pack_complete(la).colourings)
    assert digest(packings) == PINNED_COMPLETE


def test_packers_give_k_empty_colourings_without_vertices():
    cover = CorrespondenceCover.from_matchings(Graph.from_edges(0, []), 3, {})
    for packing in (find_packing(cover), pack_degenerate(cover)):
        assert packing.k == 3 and packing.colourings == ((), (), ())


#: sha256 prefixes of the coloured-slot counts pack_augment passes to
#: on_round: on the augment covers of PINNED_PACKINGS, and on a cover
#: shaped like the benchmark's (60 vertices, 2-degenerate, degree at
#: most 8, random perfect matchings, k = 1 + Delta + 3).  Re-recorded
#: with the packings above, when preferring empty slots took the rounds
#: from 76, 59, 60 and 573 to 11, 9, 9 and 15
PINNED_AUGMENT_ROUNDS = {
    1: "a7997b0870e70797",
    2: "a152c964453bc91f",
    3: "a152c964453bc91f",
    "construct": "c99f29c49ca40a54",
}


def test_augment_progress_is_pinned():
    got = {}
    for seed in (1, 2, 3):
        _, cover, bound = pinned_covers(seed)
        rounds = []
        pack_augment(cover, chi_c_bound=bound, on_round=rounds.append)
        got[seed] = digest(rounds)
    rng = random.Random(60)
    g = capped_degenerate_graph(rng, 60, 2, 8)
    cover = random_full_cover(rng, g, 1 + g.max_degree() + 3)
    rounds = []
    pack_augment(cover, chi_c_bound=3, on_round=rounds.append)
    assert rounds[-1] == g.n * cover.k
    got["construct"] = digest(rounds)
    assert got == PINNED_AUGMENT_ROUNDS
