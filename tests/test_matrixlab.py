import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import listpack.matrixlab as matrixlab
from listpack.matching import perfect_matching
from listpack.matrixlab import (
    BinaryMatrix,
    CountMatrix,
    _row_masks,
    binomial_ci,
    frobenius_konig_witness,
    no_zero_transversal_prob_mc,
    one_transversal,
    permanent,
    sample_sum_of_permutations,
    zero_permanent_prob_exact,
    zero_permanent_prob_mc,
    zero_transversal,
)


def naive_permanent(a):
    total = 0
    for sigma in permutations(range(a.k)):
        prod = 1
        for i in range(a.k):
            prod *= a.bits[i][sigma[i]]
        total += prod
    return total


def all_matrices(k):
    for bits in product((0, 1), repeat=k * k):
        yield BinaryMatrix.from_rows(
            [bits[i * k : (i + 1) * k] for i in range(k)]
        )


def test_permanent_basics():
    assert permanent(BinaryMatrix.from_rows([[1, 0], [0, 1]])) == 1
    assert permanent(BinaryMatrix.from_rows([[1] * 4] * 4)) == 24
    zero_row = BinaryMatrix.from_rows([[0, 0, 0], [1, 1, 1], [1, 1, 1]])
    assert permanent(zero_row) == 0
    with pytest.raises(ValueError):
        permanent(BinaryMatrix.from_rows([[1] * 25] * 25))


def test_permanent_matches_naive_on_seeded_random_matrices():
    rng = random.Random(1234)
    for _ in range(1000):
        k = rng.randint(1, 6)
        a = BinaryMatrix.from_rows(
            [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
        )
        assert permanent(a) == naive_permanent(a)


#: D_k, the derangements of k elements, k = 0..12
DERANGEMENTS = (
    1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570, 176214841
)


def test_permanent_of_all_ones_and_derangement_matrices():
    # past the naive comparison: perm(J_k) = k! and perm(J_k - I_k) = D_k
    for k, derangements in enumerate(DERANGEMENTS):
        ones = BinaryMatrix.from_rows([[1] * k] * k)
        assert permanent(ones) == factorial(k)
        off_diagonal = BinaryMatrix.from_rows(
            [[int(i != j) for j in range(k)] for i in range(k)]
        )
        assert permanent(off_diagonal) == derangements


def test_one_transversal_examples():
    identity = BinaryMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert one_transversal(identity) == (0, 1, 2)
    anti = BinaryMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert one_transversal(anti) == (2, 1, 0)
    assert one_transversal(BinaryMatrix.from_rows([[0, 0], [0, 0]])) is None


def test_zero_transversal_examples():
    assert zero_transversal(CountMatrix.from_rows([[0, 0], [0, 0]])) == (0, 1)
    assert zero_transversal(CountMatrix.from_rows([[1, 1], [1, 1]])) is None
    derangement = zero_transversal(
        CountMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    )
    assert derangement is not None
    assert all(derangement[i] != i for i in range(3))


def test_frobenius_konig_zero_row_and_identity():
    zero_row = BinaryMatrix.from_rows([[0, 0], [1, 1]])
    witness = frobenius_konig_witness(zero_row)
    assert witness == (frozenset({0}), frozenset({0, 1}))
    identity = BinaryMatrix.from_rows([[1, 0], [0, 1]])
    assert frobenius_konig_witness(identity) is None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_triple_equivalence_exhaustive_small(k):
    for a in all_matrices(k):
        per_zero = permanent(a) == 0
        no_transversal = one_transversal(a) is None
        witness = frobenius_konig_witness(a)
        assert per_zero == no_transversal == (witness is not None)
        if witness is not None:
            s, t = witness
            assert len(s) + len(t) == k + 1
            assert all(a.bits[i][j] == 0 for i in s for j in t)


def test_exact_zero_permanent_probabilities():
    third = Fraction(1, 3)
    assert zero_permanent_prob_exact(1, third) == third
    assert zero_permanent_prob_exact(2, Fraction(1, 2)) == Fraction(9, 16)
    v3 = zero_permanent_prob_exact(3, Fraction(1, 2))
    assert (v3 * 512).denominator == 1
    # 512 - 265 = 247 binary 3x3 matrices have nonzero permanent
    assert v3 == Fraction(265, 512)
    with pytest.raises(ValueError):
        zero_permanent_prob_exact(5, Fraction(1, 2))



def test_exact_zero_permanent_count_at_k4():
    # 27,713 of the 2^16 binary 4x4 matrices have permanent zero
    assert zero_permanent_prob_exact(4, Fraction(1, 2)) == Fraction(27713, 1 << 16)

def test_exact_probability_monotone_in_p():
    grid = [Fraction(i, 10) for i in range(11)]
    for k in range(1, 5):
        values = [zero_permanent_prob_exact(k, p) for p in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0 and values[-1] == 1


def test_truncated_inclusion_exclusion_lower_bound():
    for k in range(1, 5):
        for p in [Fraction(i, 10) for i in range(1, 10)]:
            lower = 2 * k * p**k - (
                2 * comb(k, 2) * p ** (2 * k) + k * k * p ** (2 * k - 1)
            )
            assert zero_permanent_prob_exact(k, p) >= lower


def test_mc_matches_exact_for_k2():
    est, ci = zero_permanent_prob_mc(2, 0.5, 50_000, seed=42)
    assert abs(est - 9 / 16) < ci


def test_mc_k1_is_p():
    est, ci = zero_permanent_prob_mc(1, 0.3, 100_000, seed=7)
    assert abs(est - 0.3) < ci


def test_mc_deterministic_and_trial_substreams_merge():
    a = zero_permanent_prob_mc(3, 0.4, 2000, seed=9)
    b = zero_permanent_prob_mc(3, 0.4, 2000, seed=9)
    assert a == b
    # a longer run's hit count extends a shorter one's: substreams are
    # per-trial, so the first 1000 trials are shared
    short, _ = zero_permanent_prob_mc(3, 0.4, 1000, seed=9)
    long, _ = zero_permanent_prob_mc(3, 0.4, 2000, seed=9)
    short_hits = round(short * 1000)
    long_hits = round(long * 2000)
    assert 0 <= long_hits - short_hits <= 1000


def test_binomial_ci_edges():
    est, ci = binomial_ci(0, 1000)
    assert est == 0.0 and 0 < ci < 0.01
    est, ci = binomial_ci(1000, 1000)
    assert est == 1.0 and 0 < ci < 0.01
    with pytest.raises(ValueError):
        binomial_ci(0, 0)


def test_sample_sum_of_permutations_shapes():
    m = sample_sum_of_permutations(1, 3, seed=0)
    flat = [c for row in m.counts for c in row]
    assert sorted(flat) == [0] * 6 + [1] * 3
    m = sample_sum_of_permutations(5, 2, seed=1)
    (a, b), (c, d) = m.counts
    assert a == d and b == c and a + b == 5


@given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sum_of_permutations_row_col_sums(n, k, seed):
    m = sample_sum_of_permutations(n, k, seed)
    arr = np.array(m.counts)
    assert set(arr.sum(axis=0).tolist()) == {n}
    assert set(arr.sum(axis=1).tolist()) == {n}


def test_no_zero_transversal_trivial_and_exact_oracle():
    est, _ = no_zero_transversal_prob_mc(1, 1, 100, seed=3)
    assert est == 1.0
    # exhaustive ground truth at n=2, k=3 over all (3!)^2 pairs
    hits = 0
    for p1 in permutations(range(3)):
        for p2 in permutations(range(3)):
            counts = [[0] * 3 for _ in range(3)]
            for i in range(3):
                counts[i][p1[i]] += 1
                counts[i][p2[i]] += 1
            if zero_transversal(CountMatrix.from_rows(counts)) is None:
                hits += 1
    exact = hits / 36
    assert exact == 0.5
    est, ci = no_zero_transversal_prob_mc(2, 3, 50_000, seed=11)
    assert abs(est - exact) < ci


def test_matrix_constructors_validate():
    with pytest.raises(ValueError):
        BinaryMatrix.from_rows([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        BinaryMatrix.from_rows([[0, 1]])
    with pytest.raises(ValueError):
        CountMatrix.from_rows([[-1]])


ESTIMATORS = {
    "perm-zero": zero_permanent_prob_mc,
    "zero-transversal": no_zero_transversal_prob_mc,
}


#: (estimate, ci) at 300 trials, recorded before both estimators shared
#: one trial loop and one numpy bit-pack of the sampled matrix
PINNED_ESTIMATES = {
    ("perm-zero", 12, 0.5, 1): (0.0, 0.015233347889841875),
    ("perm-zero", 12, 0.5, 2): (0.0, 0.015233347889841875),
    ("perm-zero", 12, 0.75, 1): (0.58, 0.07339983678475875),
    ("perm-zero", 12, 0.75, 2): (0.6566666666666666, 0.07061336746058083),
    ("perm-zero", 8, 0.7, 1): (0.6833333333333333, 0.06917894437345432),
    ("perm-zero", 8, 0.7, 2): (0.6866666666666666, 0.06898151598426897),
    ("perm-zero", 1, 0.3, 1): (0.32666666666666666, 0.06974674109307398),
    ("perm-zero", 1, 0.3, 2): (0.3433333333333333, 0.07061336746058083),
    ("perm-zero", 70, 0.97, 1): (1.0, 0.015233347889841875),
    ("perm-zero", 70, 0.97, 2): (1.0, 0.015233347889841875),
    ("perm-zero", 70, 0.92, 1): (0.35333333333333333, 0.07108680497016782),
    ("perm-zero", 70, 0.92, 2): (0.38, 0.07218452371528118),
    ("zero-transversal", 30, 11, 1): (1.0, 0.015233347889841875),
    ("zero-transversal", 30, 11, 2): (1.0, 0.015233347889841875),
    ("zero-transversal", 2, 3, 1): (0.4666666666666667, 0.07419236355404858),
    ("zero-transversal", 2, 3, 2): (0.51, 0.07434291404465304),
    ("zero-transversal", 4, 5, 1): (0.13666666666666666, 0.05108307214225205),
    ("zero-transversal", 4, 5, 2): (0.12666666666666668, 0.049462679743406394),
}


def test_estimates_are_pinned():
    # k = 70 rows do not fit a 64-bit mask: the estimators must stay
    # exact past it
    got = {
        (kind, a, b, seed): ESTIMATORS[kind](a, b, 300, seed)
        for kind, a, b, seed in PINNED_ESTIMATES
    }
    assert got == PINNED_ESTIMATES


def test_sums_of_permutations_are_pinned():
    counts = [
        sample_sum_of_permutations(n, k, seed).counts
        for n in (1, 4, 30)
        for k in (1, 3, 11)
        for seed in (0, 1, 2)
    ]
    digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()[:16]
    assert digest == "86ea823f32330cf8"


def test_zero_transversal_of_empty_matrix():
    assert zero_transversal(CountMatrix.from_rows([])) == ()


#: (estimate, ci) at seeds whose Philox key has a non-zero high word, at
#: trial counts on both sides of a 32-trial block edge; recorded before
#: the trial loop reused one generator and packed trials in blocks
PINNED_HIGH_KEY_ESTIMATES = {
    ("perm-zero", 8, 0.7, 2**64 + 3, 1): (1.0, 0.99),
    ("perm-zero", 8, 0.7, 2**64 + 3, 31): (0.7096774193548387, 0.20999411982622856),
    ("perm-zero", 8, 0.7, 2**64 + 3, 32): (0.6875, 0.21105879413578482),
    ("perm-zero", 8, 0.7, 2**64 + 3, 33): (0.6666666666666666, 0.21137511298806028),
    ("perm-zero", 8, 0.7, 2**64 + 3, 65): (0.7076923076923077, 0.1453124285180442),
    ("perm-zero", 8, 0.7, 2**128 - 1, 1): (1.0, 0.99),
    ("perm-zero", 8, 0.7, 2**128 - 1, 31): (0.5806451612903226, 0.2282876763091018),
    ("perm-zero", 8, 0.7, 2**128 - 1, 32): (0.5625, 0.22588759548498094),
    ("perm-zero", 8, 0.7, 2**128 - 1, 33): (0.5757575757575758, 0.2216087928627652),
    ("perm-zero", 8, 0.7, 2**128 - 1, 65): (0.6, 0.1565186243155005),
    ("perm-zero", 70, 0.92, 2**64 + 3, 1): (1.0, 0.99),
    ("perm-zero", 70, 0.92, 2**64 + 3, 31): (0.3548387096774194, 0.22135323796440146),
    ("perm-zero", 70, 0.92, 2**64 + 3, 32): (0.375, 0.22044372091196165),
    ("perm-zero", 70, 0.92, 2**64 + 3, 33): (0.36363636363636365, 0.2156981598796233),
    ("perm-zero", 70, 0.92, 2**64 + 3, 65): (0.38461538461538464, 0.15543436547313558),
    ("perm-zero", 70, 0.92, 2**128 - 1, 1): (1.0, 0.99),
    ("perm-zero", 70, 0.92, 2**128 - 1, 31): (0.3870967741935484, 0.2253419054587342),
    ("perm-zero", 70, 0.92, 2**128 - 1, 32): (0.375, 0.22044372091196165),
    ("perm-zero", 70, 0.92, 2**128 - 1, 33): (0.36363636363636365, 0.2156981598796233),
    ("perm-zero", 70, 0.92, 2**128 - 1, 65): (0.3076923076923077, 0.14745798646744318),
    ("zero-transversal", 4, 5, 2**64 + 3, 1): (0.0, 0.99),
    ("zero-transversal", 4, 5, 2**64 + 3, 31): (0.06451612903225806, 0.11365499720095593),
    ("zero-transversal", 4, 5, 2**64 + 3, 32): (0.0625, 0.11022186045598083),
    ("zero-transversal", 4, 5, 2**64 + 3, 33): (0.09090909090909091, 0.12890430583445495),
    ("zero-transversal", 4, 5, 2**64 + 3, 65): (0.07692307692307693, 0.0851349081811385),
    ("zero-transversal", 4, 5, 2**128 - 1, 1): (0.0, 0.99),
    ("zero-transversal", 4, 5, 2**128 - 1, 31): (0.0967741935483871, 0.1367773489423811),
    ("zero-transversal", 4, 5, 2**128 - 1, 32): (0.09375, 0.13272469573311396),
    ("zero-transversal", 4, 5, 2**128 - 1, 33): (0.12121212121212122, 0.14634408188576492),
    ("zero-transversal", 4, 5, 2**128 - 1, 65): (0.12307692307692308, 0.10496136402665766),
}


def test_high_key_estimates_are_pinned():
    got = {
        (kind, a, b, seed, trials): ESTIMATORS[kind](a, b, trials, seed)
        for kind, a, b, seed, trials in PINNED_HIGH_KEY_ESTIMATES
    }
    assert got == PINNED_HIGH_KEY_ESTIMATES


#: (estimate, ci) where a 32-trial block is partial or wholly decided by
#: the empty-row-or-column check; recorded before that check was added
PINNED_HALL_ESTIMATES = {
    ("perm-zero", 8, 0.7, 5, 33): (0.696969696969697, 0.20606777780387422),
    ("zero-transversal", 30, 11, 5, 33): (1.0, 0.13025099738221668),
    ("perm-zero", 1, 0.3, 5, 33): (0.21212121212121213, 0.1833081877120426),
    ("perm-zero", 12, 0.5, 5, 65): (0.0, 0.06839723418744781),
}


def test_hall_decided_estimates_are_pinned():
    got = {
        (kind, a, b, seed, trials): ESTIMATORS[kind](a, b, trials, seed)
        for kind, a, b, seed, trials in PINNED_HALL_ESTIMATES
    }
    assert got == PINNED_HALL_ESTIMATES


def test_row_masks_of_empty_stack():
    # a block whose trials all have an empty row or column packs nothing
    for k in (3, 70):
        assert _row_masks(np.zeros((0, k, k), bool)) == []


def test_matcher_sees_only_trials_the_hall_check_leaves_open(monkeypatch):
    # a matrix with an empty row or column is a hit without the matcher:
    # every (30, 11) sum has a row or column without a zero cell, and 2,308
    # of the 4,000 (8, 0.7) matrices have an empty row or column
    calls = []

    def counting(masks, k):
        calls.append(k)
        return perfect_matching(masks, k)

    monkeypatch.setattr(matrixlab, "perfect_matching", counting)
    assert no_zero_transversal_prob_mc(30, 11, 1250, 1) == (
        1.0,
        0.003677358045582335,
    )
    assert len(calls) == 0
    assert zero_permanent_prob_mc(8, 0.7, 4000, 1) == (0.6755, 0.01906808640254509)
    assert len(calls) == 1692


def reference_rate(k, trials, seed, allowed_rows):
    """The per-trial substream contract spelled out: trial t draws from a
    fresh Philox(key=seed, counter=t * 2^64); allowed_rows(rng) gives the
    k x k allowed cells as nested lists."""
    hits = 0
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=t << 64))
        rows = allowed_rows(rng)
        masks = [sum(1 << j for j in range(k) if row[j]) for row in rows]
        hits += perfect_matching(masks, k) is None
    return binomial_ci(hits, trials)


def reference_zero_cells(rng, n, k):
    perms = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1).tolist()
    counts = [[0] * k for _ in range(k)]
    for perm in perms:
        for i, j in enumerate(perm):
            counts[i][j] += 1
    return [[c == 0 for c in row] for row in counts]


@given(
    st.integers(0, 13),
    st.integers(1, 70),
    st.integers(0, 2**128 - 1),
    st.floats(0, 1),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_estimators_match_per_trial_reference(k, trials, seed, p, n):
    assert zero_permanent_prob_mc(k, p, trials, seed) == reference_rate(
        k, trials, seed, lambda rng: (rng.random((k, k)) >= p).tolist()
    )
    assert no_zero_transversal_prob_mc(n, k, trials, seed) == reference_rate(
        k, trials, seed, lambda rng: reference_zero_cells(rng, n, k)
    )


def test_mc_memory_stays_flat_in_trials():
    # the montecarlo benchmark gates peak RSS: trials must stream in
    # small blocks, never as one array of all samples
    tracemalloc.start()
    try:
        zero_permanent_prob_mc(12, 0.5, 20_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
