import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listpack.matrixlab import (
    BinaryMatrix,
    CountMatrix,
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
    estimator = {
        "perm-zero": zero_permanent_prob_mc,
        "zero-transversal": no_zero_transversal_prob_mc,
    }
    got = {
        (kind, a, b, seed): estimator[kind](a, b, 300, seed)
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
