"""Acceptance gate: fifteen end-to-end criteria, one pass/fail line each.

Each test prints exactly one "criterion NN: PASS/FAIL" line on the real
stdout, bypassing pytest's capture.  Seeded baselines marked "pilot" were
frozen from calibration runs at first build; they are regression fences,
not externally derived constants.

Criterion 12's bound at (n,k) = (30,11).  Let X be the number of
0-transversals of R, the sum of n independent uniform k x k permutation
matrices.  A fixed permutation sigma is a 0-transversal iff every summand
misses sigma in every row; one uniform permutation does so with
probability D_k / k! (D_k the derangement number), so by independence
E[X] = k! * (D_k / k!)^n, and Markov's inequality gives
Pr[no 0-transversal] >= 1 - E[X].  At (30,11) E[X] = 3.735e-6, so the
probability is at least 0.9999963, and the criterion checks that the
estimate plus its ci reaches that bound.  An earlier fence asserted the
estimate was below 0.05.  That fence was false, not merely loose: no
correct estimator can report less than 0.05 for a quantity that is at
least 0.9999963 (the seeded estimate is 0.99999).  It had been taken from
the asymptotic bound 3k^2 * exp(-n^(1/15)), which is 103.5 at (30,11) and
so yields no fence at all at this size.
"""

import json
import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

from listpack.constructive import (
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
    dumps,
    list_to_cover,
    validate_packing,
)
from listpack.exact import (
    decide_chi_star_list,
    find_list_packing,
    find_packing,
)
from listpack.generators import (
    gen_c4,
    gen_kab_cover,
    gen_random_bipartite_cover,
    gen_shift_construction,
)
from listpack.matrixlab import (
    BinaryMatrix,
    CountMatrix,
    frobenius_konig_witness,
    no_zero_transversal_prob_mc,
    one_transversal,
    permanent,
    zero_permanent_prob_exact,
    zero_permanent_prob_mc,
    zero_transversal,
)
from listpack.probabilistic import (
    fc_from_bipartition,
    pack_bipartite_lll,
    pack_fractional,
)


import pytest


@pytest.fixture
def report(capsys):
    """Emit the criterion's pass/fail line on the real stdout (past
    pytest's capture), then assert."""

    def _report(num, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {num:02d}: {status} {detail}".rstrip())
        assert ok, f"criterion {num} failed: {detail}"

    return _report


# ---------------------------------------------------------------------------


def test_criterion_01_c4_witness(report):
    start = time.monotonic()
    g, lists = gen_c4()
    no_two_packing = find_packing(list_to_cover(g, lists)) is None
    all_pack_at_three = decide_chi_star_list(g, 3) is None
    elapsed = time.monotonic() - start
    report(
        1,
        no_two_packing and all_pack_at_three and elapsed < 1.0,
        f"(C4: no 2-packing, all 3-lists pack; {elapsed:.2f}s)",
    )


def test_criterion_02_clique_packing_numbers(report):
    start = time.monotonic()
    k2 = Graph.from_edges(2, [(0, 1)])
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])  # = K3 minus an edge
    ok = (
        decide_chi_star_list(k2, 1) is not None
        and decide_chi_star_list(k2, 2) is None
        and decide_chi_star_list(k3, 2) is not None
        and decide_chi_star_list(k3, 3) is None
        and decide_chi_star_list(p3, 1) is not None
        and decide_chi_star_list(p3, 2) is None
    )
    elapsed = time.monotonic() - start
    report(
        2,
        ok and elapsed < 300,
        f"(K2: 2, K3: 3, P3 = K3-e: 2; {elapsed:.1f}s)",
    )


def test_criterion_03_kab_cover_pins_correspondence_number(report):
    start = time.monotonic()
    cover3 = gen_kab_cover()
    no_packing = find_packing(cover3) is None
    # extend every matching to a full 4-fold cover (extra slot pairs with
    # itself across every edge) and pack at k = 4 = 2 * degeneracy
    extended = CorrespondenceCover.from_matchings(
        cover3.graph,
        4,
        {e: list(pairs) + [(3, 3)] for e, pairs in cover3.matchings.items()},
    )
    p = pack_degenerate(extended)
    packs_at_four = validate_packing(extended, p) is None
    elapsed = time.monotonic() - start
    report(
        3,
        no_packing and packs_at_four and elapsed < 10,
        f"(K_2,6 cover: no 3-packing, degenerate packer succeeds at k=4; {elapsed:.1f}s)",
    )


def test_criterion_04_shift_construction(report):
    start = time.monotonic()
    g, lists = gen_shift_construction()
    _, d = degeneracy_order(g)
    ok = d == 2 and find_list_packing(g, lists) is None
    elapsed = time.monotonic() - start
    report(
        4,
        ok and elapsed < 60,
        f"(degeneracy-2 graph with 3-lists and no packing; {elapsed:.1f}s)",
    )


def _random_graph(rng, n, p):
    return Graph.from_edges(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


def _shape_instances(rng):
    n = rng.randint(2, 12)
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    cycle = Graph.from_edges(max(n, 3), [(i, (i + 1) % max(n, 3)) for i in range(max(n, 3))])
    random_g = _random_graph(rng, n, 0.4)
    matching_g = Graph.from_edges(
        2 * (n // 2) or 2, [(2 * i, 2 * i + 1) for i in range(max(n // 2, 1))]
    )
    return [path, cycle, random_g, matching_g]


def _full_cover(rng, g, k):
    matchings = {}
    for u, v in sorted(g.edges):
        perm = list(range(k))
        rng.shuffle(perm)
        matchings[(u, v)] = [(i, perm[i]) for i in range(k)]
    return CorrespondenceCover.from_matchings(g, k, matchings)


def test_criterion_05_degenerate_packer_suite(report):
    rng = random.Random(50001)
    failures = 0
    runs = 0
    for trial in range(200):
        for g in _shape_instances(rng):
            _, d = degeneracy_order(g)
            k = max(2 * d, 1)
            cover = _full_cover(rng, g, k)
            p = pack_degenerate(cover)
            runs += 1
            if validate_packing(cover, p) is not None:
                failures += 1
    report(5, failures == 0, f"({runs} covers at k = 2*degeneracy, {failures} failures)")


def test_criterion_06_complete_packer_suite(report):
    rng = random.Random(60001)
    failures = 0
    done = 0
    while done < 200:
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        ncol = rng.randint(k, n * k)
        caps = {c: k for c in range(1, ncol + 1)}
        lists = []
        feasible = True
        for _ in range(n):
            avail = [c for c in caps if caps[c] > 0]
            if len(avail) < k:
                feasible = False
                break
            chosen = rng.sample(avail, k)
            for c in chosen:
                caps[c] -= 1
            lists.append(chosen)
        if not feasible:
            continue
        done += 1
        la = ListAssignment.from_lists(lists)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        p = pack_complete(la)
        if validate_packing(list_to_cover(g, la), p) is not None:
            failures += 1
    report(6, failures == 0, f"(200 clique list-assignments, {failures} failures)")


def test_criterion_07_bipartite_ordered_suite(report):
    rng = random.Random(70001)
    failures = 0
    for trial in range(200):
        na, nb = rng.randint(1, 5), rng.randint(1, 6)
        g = Graph.from_edges(
            na + nb,
            [
                (a, na + b)
                for a in range(na)
                for b in range(nb)
                if rng.random() < 0.6
            ],
        )
        deg = g.degrees()
        d_a = max(deg[:na], default=0)
        d_b = max(deg[na:], default=0)
        k = min(d_a, d_b) + 1
        la = ListAssignment.from_lists(
            [sorted(rng.sample(range(25), k)) for _ in range(g.n)]
        )
        p = pack_bipartite_ordered(g, la)
        bad = validate_packing(list_to_cover(g, la), p) is not None
        b_vertices = range(na, g.n) if d_a <= d_b else range(na)
        sorted_ok = all(
            [row[b] for row in p.colourings] == list(la.lists[b])
            for b in b_vertices
        )
        if bad or not sorted_ok:
            failures += 1
    report(7, failures == 0, f"(200 bipartite instances at k = Delta_A + 1, {failures} failures)")


def test_criterion_08_augment_packer_suite(report):
    rng = random.Random(80001)
    failures = 0
    for trial in range(100):
        g = _random_graph(rng, rng.randint(2, 6), 0.5)
        _, d = degeneracy_order(g)
        k = 1 + g.max_degree() + (1 + d)
        cover = _full_cover(rng, g, k)
        progress = []
        p = pack_augment(cover, on_round=progress.append)
        ok = (
            validate_packing(cover, p) is None
            and all(b > a for a, b in zip(progress, progress[1:]))
            and (not progress or progress[-1] == g.n * k)
        )
        if not ok:
            failures += 1
    report(8, failures == 0, f"(100 covers at k = 2 + Delta + degeneracy, {failures} failures)")


def test_criterion_09_frobenius_konig_equivalence(report):
    start = time.monotonic()
    mismatches = 0
    for k in range(1, 5):
        for bits in product((0, 1), repeat=k * k):
            a = BinaryMatrix.from_rows(
                [bits[i * k : (i + 1) * k] for i in range(k)]
            )
            per_zero = permanent(a) == 0
            no_transversal = one_transversal(a) is None
            witness = frobenius_konig_witness(a)
            consistent = per_zero == no_transversal == (witness is not None)
            if witness is not None:
                s, t = witness
                consistent = (
                    consistent
                    and len(s) + len(t) == k + 1
                    and all(a.bits[i][j] == 0 for i in s for j in t)
                )
            if not consistent:
                mismatches += 1
    elapsed = time.monotonic() - start
    report(
        9,
        mismatches == 0 and elapsed < 120,
        f"(all matrices up to k=4, {mismatches} mismatches; {elapsed:.0f}s)",
    )


# pilot constants for criterion 10 (frozen at first build, seed 2024,
# 10^6 trials): estimate 0.005903, ratio band [0.8, 1.3]
PILOT_K12_ESTIMATE = 0.005903
RATIO_BAND = (0.8, 1.3)


def test_criterion_10_permanent_zero_probability(report):
    start = time.monotonic()
    exact_ok = zero_permanent_prob_exact(2, Fraction(1, 2)) == Fraction(9, 16)
    est, ci = zero_permanent_prob_mc(12, 0.5, 10**6, seed=2024)
    predicted = 2 * 12 * 0.5**12
    ratio = est / predicted
    elapsed = time.monotonic() - start
    ok = (
        exact_ok
        and abs(est - PILOT_K12_ESTIMATE) < ci
        and RATIO_BAND[0] <= ratio <= RATIO_BAND[1]
        and elapsed < 300
    )
    report(
        10,
        ok,
        f"(exact 9/16; k=12 estimate {est:.6f}, ratio {ratio:.3f}; {elapsed:.0f}s)",
    )


def test_criterion_11_truncated_inclusion_exclusion(report):
    violations = 0
    for k in range(1, 5):
        for i in range(1, 10):
            p = Fraction(i, 10)
            lower = 2 * k * p**k - (
                2 * comb(k, 2) * p ** (2 * k) + k * k * p ** (2 * k - 1)
            )
            if zero_permanent_prob_exact(k, p) < lower:
                violations += 1
    report(11, violations == 0, f"(k <= 4, p in 0.1..0.9, {violations} violations)")


def _expected_zero_transversals(n, k):
    """E[X] = k! * (D_k / k!)^n, exactly, for X the number of 0-transversals
    of the sum of n independent uniform k x k permutation matrices (see the
    module docstring); D_k from the recurrence D_m = (m-1)(D_{m-1} + D_{m-2})."""
    derangements = [1, 0]
    for m in range(2, k + 1):
        derangements.append((m - 1) * (derangements[-1] + derangements[-2]))
    return factorial(k) * Fraction(derangements[k], factorial(k)) ** n


def test_criterion_12_zero_transversal_probability(report):
    start = time.monotonic()
    # exact ground truth at (n,k) = (2,3): 18 of the 36 permutation pairs,
    # and the mean number of 0-transversals per pair, which must equal E[X]
    hits = 0
    zero_transversals = 0
    for p1 in permutations(range(3)):
        for p2 in permutations(range(3)):
            counts = [[0] * 3 for _ in range(3)]
            for i in range(3):
                counts[i][p1[i]] += 1
                counts[i][p2[i]] += 1
            if zero_transversal(CountMatrix.from_rows(counts)) is None:
                hits += 1
            zero_transversals += sum(
                all(counts[i][sigma[i]] == 0 for i in range(3))
                for sigma in permutations(range(3))
            )
    exact = hits / 36
    mean_small = Fraction(zero_transversals, 36)
    expected_small = _expected_zero_transversals(2, 3)
    moment_ok = mean_small == expected_small == Fraction(2, 3)
    est_small, ci_small = no_zero_transversal_prob_mc(2, 3, 10**5, seed=11)
    small_ok = abs(est_small - exact) < ci_small
    est_big, ci_big = no_zero_transversal_prob_mc(30, 11, 10**5, seed=5)
    bound = 1 - _expected_zero_transversals(30, 11)
    big_ok = Fraction(est_big) + Fraction(ci_big) >= bound
    elapsed = time.monotonic() - start
    report(
        12,
        moment_ok and small_ok and big_ok and elapsed < 600,
        f"((2,3) estimate {est_small:.4f} vs exact {exact}, "
        f"mean 0-transversals {mean_small} vs E[X] {expected_small}; "
        f"(30,11) estimate {est_big:.5f} ci {ci_big:.2e} "
        f"vs bound {float(bound):.7f}; {elapsed:.0f}s)",
    )


def test_criterion_13_negative_correlation_failure(report):
    # R = sum of n=2 uniform 2x2 permutation matrices; exact enumeration
    all_nonzero = 0
    cell_nonzero = 0
    pairs = list(product(permutations(range(2)), repeat=2))
    for p1, p2 in pairs:
        counts = [[0] * 2 for _ in range(2)]
        for i in range(2):
            counts[i][p1[i]] += 1
            counts[i][p2[i]] += 1
        if all(c > 0 for row in counts for c in row):
            all_nonzero += 1
        if counts[0][0] > 0:
            cell_nonzero += 1
    joint = Fraction(all_nonzero, len(pairs))
    single = Fraction(cell_nonzero, len(pairs))
    report(
        13,
        joint > single**4,
        f"(Pr[all cells nonzero] = {joint} > Pr[one cell nonzero]^4 = {single ** 4})",
    )


# success-rate baselines for criterion 14, frozen from the first-build
# pilot: fractional 500/500 on C6 with 5-lists, LLL 500/500 on random
# 8-regular bipartite covers with |A| = |B| = 40, k = 9
FRACTIONAL_BASELINE = 0.95
LLL_BASELINE = 0.90


def test_criterion_14_randomized_packers_validity(report):
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    fc = fc_from_bipartition(g)
    lists = ListAssignment.from_lists([tuple(range(1, 6))] * 6)
    cover = list_to_cover(g, lists)
    invalid = 0
    frac_success = 0
    for seed in range(500):
        p = pack_fractional(g, lists, fc, max_rounds=50, seed=seed)
        if p is None:
            continue
        frac_success += 1
        if validate_packing(cover, p) is not None:
            invalid += 1

    lll_success = 0
    for seed in range(500):
        cov = gen_random_bipartite_cover(40, 8, 9, 140000 + seed)
        p = pack_bipartite_lll(cov, seed=seed)
        if p is None:
            continue
        lll_success += 1
        if validate_packing(cov, p) is not None:
            invalid += 1

    ok = (
        invalid == 0
        and frac_success / 500 >= FRACTIONAL_BASELINE
        and lll_success / 500 >= LLL_BASELINE
    )
    report(
        14,
        ok,
        f"(0 invalid outputs; fractional {frac_success}/500, LLL {lll_success}/500)",
    )


def test_criterion_15_determinism(report):
    records = []
    for _ in range(2):
        g, lists = gen_c4()
        fields = {
            "solve_c4": find_packing(list_to_cover(g, lists)) is None,
            "mc": zero_permanent_prob_mc(3, 0.4, 5000, seed=9),
            "zt": no_zero_transversal_prob_mc(2, 3, 5000, seed=9),
        }
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        la = ListAssignment.from_lists([tuple(range(1, 6))] * 6)
        p = pack_fractional(c6, la, fc_from_bipartition(c6), max_rounds=50, seed=4)
        fields["fractional"] = p.colourings if p else None
        rng = random.Random(77)
        gr = _random_graph(rng, 6, 0.5)
        _, d = degeneracy_order(gr)
        cov = _full_cover(rng, gr, max(2 * d, 1))
        fields["degenerate"] = pack_degenerate(cov).colourings
        records.append(
            dumps({k: repr(v) for k, v in fields.items()})
        )
    report(15, records[0] == records[1], "(byte-identical records on repeat)")
