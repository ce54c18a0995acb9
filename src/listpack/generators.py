"""Constructors for the extremal instances exhibited in the source
material: the 4-cycle with 2-lists, the K_{2,6} correspondence cover
showing tightness of the 2*degeneracy bound, the iterated shift
construction with degeneracy 2 and 3-lists, and the K_{b^b,b}
disjoint-lists assignment; plus the random bipartite covers that the
Moser-Tardos packer is measured on.  The cover and the shift
construction are the d = 2 members of families indexed by the
degeneracy d; their docstrings state the families, and only d = 2 is
built, so neither takes a parameter.

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


def gen_kab_cover() -> CorrespondenceCover:
    """K_{2,6} with a 3-fold cover, the d = 2 case of the family
    K_{d,((2d-1)!)^(d-1)} with a (2d-1)-fold cover containing every
    combination of d matchings from a B-part to the A-parts.

    Each B-vertex's matching to the first A-vertex is normalised to the
    identity (colour relabelling); the remaining d-1 matchings range over
    all permutations of the 2d-1 slots.  No packing exists, which pins
    the correspondence packing number of the graph at 2d.  |B| grows as
    ((2d-1)!)^(d-1), so only d = 2 is built: vertices 0 and 1 are a_0 and
    a_1, and B-vertex 2 + idx meets a_1 through the idx-th permutation
    of the 3 slots.
    """
    g = Graph.from_edges(8, [(a, b) for a in range(2) for b in range(2, 8)])
    matchings: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for b, rho in enumerate(permutations(range(3)), start=2):
        # slot pairs oriented (slot of a, slot of b): slot j of b
        # conflicts with slot j of a_0 and with slot rho[j] of a_1
        matchings[(0, b)] = [(j, j) for j in range(3)]
        matchings[(1, b)] = [(rho[j], j) for j in range(3)]
    return CorrespondenceCover.from_matchings(g, 3, matchings)


def _shift(lst: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    if i not in lst or j in lst:
        raise ValueError(f"shift ({i},{j}) not applicable to {lst}")
    return tuple(sorted(set(lst) - {i} | {j}))


def gen_shift_construction() -> tuple[Graph, ListAssignment]:
    """Iterated-copy construction with degeneracy 2 and 3-lists that
    admits no packing, the d = 2 case of the family with degeneracy d
    and (d+1)-lists.

    Layer 1 is K_{d+1} with lists [d+1].  Each later layer copies the
    previous one, joining every copy to the other d vertices of the
    previous layer, with lists obtained by an (i,j)-shift.  For d=2 the
    shift schedule (1,4), (2,1), (4,2) forces the colour columns of layer
    4 to equal those of layer 1 with colours 1 and 2 swapped; an apex
    with list [3] joined to the first vertex of layers 1 and 4 then has
    both small colours blocked twice over, so no packing exists.
    """
    base = (1, 2, 3)
    lists = [base] * 3
    edges = [(0, 1), (0, 2), (1, 2)]
    layer = [0, 1, 2]
    for i, j in [(1, 4), (2, 1), (4, 2)]:
        copies = list(range(len(lists), len(lists) + 3))
        for v, v_new in zip(layer, copies):
            lists.append(_shift(lists[v], i, j))
            # the copy of v joins the previous layer minus v itself
            edges.extend((w, v_new) for w in layer if w != v)
        layer = copies
    apex = len(lists)
    lists.append(base)
    edges += [(0, apex), (layer[0], apex)]
    return Graph.from_edges(len(lists), edges), ListAssignment.from_lists(lists)


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
