"""Constructors for the extremal instances exhibited in the source
material: the 4-cycle with 2-lists, the complete bipartite
correspondence cover showing tightness of the 2*degeneracy bound, the
iterated shift construction with degeneracy d and (d+1)-lists, and the
K_{b^b,b} disjoint-lists assignment; plus the random bipartite covers
that the Moser-Tardos packer is measured on.

Colour identifiers follow the written instances and are 1-based; the
core layer does not care.
"""

from __future__ import annotations

import random
from itertools import permutations, product

from .core import CorrespondenceCover, Graph, ListAssignment


def gen_c4() -> tuple[Graph, ListAssignment]:
    """C4 with lists {1,2}, {1,2}, {1,3}, {2,3} in cyclic order; the
    smallest instance with no 2-packing."""
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    lists = ListAssignment.from_lists([{1, 2}, {1, 2}, {1, 3}, {2, 3}])
    return g, lists


def gen_kab_cover(d: int) -> CorrespondenceCover:
    """K_{d,((2d-1)!)^(d-1)} with a (2d-1)-fold cover containing every
    combination of d matchings from a B-part to the A-parts.

    Each B-vertex's matching to the first A-vertex is normalised to the
    identity (colour relabelling); the remaining d-1 matchings range over
    all permutations of the 2d-1 slots.  No packing exists, which pins
    the correspondence packing number of the graph at 2d.

    Only d=2 is supported: |B| grows as ((2d-1)!)^(d-1).
    """
    if d != 2:
        raise ValueError("gen_kab_cover supports d=2 only")
    k = 2 * d - 1
    perms = list(permutations(range(k)))
    combos = list(product(perms, repeat=d - 1))
    n_b = len(combos)  # ((2d-1)!)^(d-1)
    n = d + n_b
    a_vertices = list(range(d))
    edges = [(a, b) for a in a_vertices for b in range(d, n)]
    g = Graph.from_edges(n, edges)
    matchings: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for idx, combo in enumerate(combos):
        b = d + idx
        # a_0: identity; slot pairs oriented (slot of a, slot of b).
        matchings[(0, b)] = [(i, i) for i in range(k)]
        for a in range(1, d):
            rho = combo[a - 1]  # slot j of b conflicts with slot rho[j] of a
            matchings[(a, b)] = [(rho[j], j) for j in range(k)]
    return CorrespondenceCover.from_matchings(g, k, matchings)


def _shift(lst: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    if i not in lst or j in lst:
        raise ValueError(f"shift ({i},{j}) not applicable to {lst}")
    return tuple(sorted(set(lst) - {i} | {j}))


def gen_shift_construction(d: int) -> tuple[Graph, ListAssignment]:
    """Iterated-copy construction with degeneracy d and (d+1)-lists that
    admits no packing.

    Layer 1 is K_{d+1} with lists [d+1].  Each later layer copies the
    previous one, joining every copy to the other d vertices of the
    previous layer, with lists obtained by an (i,j)-shift.  For d=2 the
    shift schedule (1,4), (2,1), (4,2) forces the colour columns of layer
    4 to equal those of layer 1 with colours 1 and 2 swapped; an apex
    with list [3] joined to the first vertex of layers 1 and 4 then has
    both small colours blocked twice over, so no packing exists.

    Only d=2 is supported.
    """
    if d != 2:
        raise ValueError("gen_shift_construction supports d=2 only")
    layer_size = d + 1
    shifts = [(1, d + 2), (2, 1), (d + 2, 2)]

    lists: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    base = tuple(range(1, d + 2))

    # layer 1: K_{d+1}
    layer = list(range(layer_size))
    for v in layer:
        lists.append(base)
    for a in range(layer_size):
        for b in range(a + 1, layer_size):
            edges.append((layer[a], layer[b]))
    first_layer = list(layer)

    for i, j in shifts:
        new_layer = []
        for pos, v in enumerate(layer):
            v_new = len(lists)
            lists.append(_shift(lists[v], i, j))
            # copy of v joins the previous layer minus v itself
            for w in layer:
                if w != v:
                    edges.append((w, v_new))
            new_layer.append(v_new)
        layer = new_layer

    apex = len(lists)
    lists.append(base)
    edges.append((first_layer[0], apex))
    edges.append((layer[0], apex))

    g = Graph.from_edges(len(lists), edges)
    return g, ListAssignment.from_lists(lists)


def gen_kbb_lists(b: int) -> tuple[Graph, ListAssignment]:
    """K_{b^b,b} with b disjoint b-lists on the small side and every
    b-tuple of L_1 x ... x L_b on the large side; admits no proper
    list-colouring at all.

    Only b <= 3 is supported (the graph has b^b + b vertices).
    """
    if not 1 <= b <= 3:
        raise ValueError("gen_kbb_lists supports 1 <= b <= 3")
    small_lists = [
        tuple(range(1 + i * b, 1 + (i + 1) * b)) for i in range(b)
    ]
    large_lists = [tuple(sorted(t)) for t in product(*small_lists)]
    n_small, n_large = b, b**b
    n = n_small + n_large
    edges = [
        (s, n_small + l) for s in range(n_small) for l in range(n_large)
    ]
    g = Graph.from_edges(n, edges)
    lists = ListAssignment.from_lists(small_lists + large_lists)
    return g, lists


def gen_random_bipartite_cover(
    side: int, degree: int, k: int, seed: int
) -> CorrespondenceCover:
    """Random k-fold cover of a bipartite graph with parts 0..side-1 and
    side..2*side-1: the union of `degree` uniform random perfect matchings
    between the parts (repeated edges merged), and a uniform random full
    slot matching on every edge.  A pure function of its arguments."""
    rng = random.Random(seed)
    edges = set()
    for _ in range(degree):
        perm = list(range(side))
        rng.shuffle(perm)
        for a in range(side):
            edges.add((a, side + perm[a]))
    g = Graph.from_edges(2 * side, sorted(edges))
    matchings = {}
    for u, v in sorted(g.edges):
        perm = list(range(k))
        rng.shuffle(perm)
        matchings[(u, v)] = [(i, perm[i]) for i in range(k)]
    return CorrespondenceCover.from_matchings(g, k, matchings)
