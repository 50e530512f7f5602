"""Hypergeometric vs multinomial urn comparison.

Two independent oracles are used here: one enumerates position tuples
directly and aggregates them into label-sequence probabilities; the other
sums exact rational masses over count vectors.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from nsbox import (
    ResourceLimitError,
    Urn,
    df_bound,
    hypergeometric_label_pmf,
    hypergeometric_pmf,
    multinomial_label_pmf,
    multinomial_pmf,
    urn_variational_distance,
)


def partitions(n):
    """All integer partitions of n, as tuples in nonincreasing order."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def urn_from_partition(part):
    labels = []
    for lab, count in enumerate(part):
        labels.extend([lab] * count)
    return Urn(tuple(labels))


def oracle_label_distance(urn, k):
    """Aggregate position-level measures into label-sequence measures."""
    n = urn.n
    h = {}
    m = {}
    for tup in itertools.product(range(n), repeat=k):
        seq = tuple(urn.labels[p] for p in tup)
        m[seq] = m.get(seq, 0.0) + multinomial_pmf(urn, tup)
        h[seq] = h.get(seq, 0.0) + hypergeometric_pmf(urn, tup)
    keys = set(h) | set(m)
    return 0.5 * sum(abs(h.get(s, 0.0) - m.get(s, 0.0)) for s in keys)


def compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def exact_label_distance(urn, k):
    """Exact rational total variation, summed over count vectors."""
    counts = list(urn.counts.values())
    total = Fraction(0)
    for comp in compositions(k, len(counts)):
        sequences = math.factorial(k) // math.prod(math.factorial(j) for j in comp)
        h = Fraction(math.prod(math.perm(c, j) for c, j in zip(counts, comp)), math.perm(urn.n, k))
        m = Fraction(math.prod(c**j for c, j in zip(counts, comp)), urn.n**k)
        total += sequences * abs(h - m)
    return total / 2


class TestPositionPMFs:
    def test_multinomial_value(self):
        urn = Urn((1, 1, 2, 3))
        assert multinomial_pmf(urn, (0, 3)) == pytest.approx(1 / 16)

    def test_multinomial_empty_draw(self):
        assert multinomial_pmf(Urn((1, 2)), ()) == 1.0

    def test_hypergeometric_two_balls(self):
        urn = Urn((1, 2))
        assert hypergeometric_pmf(urn, (0, 1)) == pytest.approx(0.5)

    def test_hypergeometric_repeat_is_zero(self):
        assert hypergeometric_pmf(Urn((1, 2)), (0, 0)) == 0.0

    def test_hypergeometric_four_balls(self):
        urn = Urn((1, 2, 3, 4))
        assert hypergeometric_pmf(urn, (2, 0)) == pytest.approx(1 / 12)

    def test_too_many_draws(self):
        with pytest.raises(ValueError):
            hypergeometric_pmf(Urn((1, 2)), (0, 1, 0))


class TestLabelPMFs:
    def test_multinomial_repeated_label(self):
        # Label 7 occupies 2 of 4 positions: P[(7, 7)] = (2/4)^2.
        urn = Urn((7, 7, 1, 2))
        assert multinomial_label_pmf(urn, (7, 7)) == pytest.approx(0.25)

    def test_against_position_oracle(self):
        urn = Urn((0, 0, 1, 2))
        for k in (1, 2, 3):
            h = {}
            m = {}
            for tup in itertools.product(range(urn.n), repeat=k):
                seq = tuple(urn.labels[p] for p in tup)
                m[seq] = m.get(seq, 0.0) + multinomial_pmf(urn, tup)
                h[seq] = h.get(seq, 0.0) + hypergeometric_pmf(urn, tup)
            for seq in m:
                assert multinomial_label_pmf(urn, seq) == pytest.approx(m[seq], abs=1e-12)
                assert hypergeometric_label_pmf(urn, seq) == pytest.approx(h[seq], abs=1e-12)

    def test_pmfs_sum_to_one(self):
        urn = Urn((0, 0, 1, 2, 2, 2))
        for k in (1, 2, 3):
            seqs = list(itertools.product(urn.distinct, repeat=k))
            assert sum(multinomial_label_pmf(urn, s) for s in seqs) == pytest.approx(1, abs=1e-12)
            assert sum(hypergeometric_label_pmf(urn, s) for s in seqs) == pytest.approx(1, abs=1e-12)


class TestVariationalDistance:
    def test_two_distinct_balls(self):
        # Enumeration: H gives 1/2 to each of (1,2),(2,1) and 0 to repeats;
        # M gives 1/4 to all four sequences; half the L1 sum is 1/2.
        assert urn_variational_distance(Urn((1, 2)), 2) == pytest.approx(0.5, abs=1e-15)

    def test_identical_labels(self):
        assert urn_variational_distance(Urn((5, 5, 5)), 2) == 0.0

    def test_k_one_exact(self):
        assert urn_variational_distance(Urn((1, 2, 3, 4)), 1) == 0.0

    def test_k_zero(self):
        assert urn_variational_distance(Urn((1, 2)), 0) == 0.0

    def test_against_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            labels = tuple(int(v) for v in rng.integers(0, 3, size=n))
            k = int(rng.integers(1, n + 1))
            urn = Urn(labels)
            assert urn_variational_distance(urn, k) == pytest.approx(
                oracle_label_distance(urn, k), abs=1e-12
            )

    def test_enumeration_cap(self):
        with pytest.raises(ResourceLimitError):
            urn_variational_distance(Urn(tuple(range(100))), 100)

    def test_exact_on_all_small_urns(self):
        for n in range(1, 9):
            for part in partitions(n):
                urn = urn_from_partition(part)
                for k in range(0, n + 1):
                    exact = exact_label_distance(urn, k)
                    assert abs(urn_variational_distance(urn, k) - exact) <= 1e-13, (part, k)

    def test_twelve_labels_seven_draws_not_refused(self):
        # 12**7 label sequences, but only C(18, 11) = 31824 count vectors.
        urn = Urn(tuple(range(12)) * 2 + (0, 1, 2, 3, 4, 5, 6))
        exact = exact_label_distance(urn, 7)
        assert abs(urn_variational_distance(urn, 7) - exact) <= 1e-13


class TestBound:
    def test_examples(self):
        assert df_bound(2, 2, 4) == 1.0
        assert df_bound(10, 1, 3) == 0.0
        assert df_bound(100, 5, 2) == pytest.approx(0.2)

    def test_bound_holds_on_all_small_urns(self):
        # Distance depends only on the multiset of label counts, so the
        # partitions of n enumerate all urns of size n up to relabelling.
        for n in range(1, 9):
            for part in partitions(n):
                urn = urn_from_partition(part)
                c = len(part)
                for k in range(0, n + 1):
                    if c**k > 10**7:  # outside the documented enumeration cap
                        continue
                    d = urn_variational_distance(urn, k)
                    assert d <= df_bound(n, k, c) + 1e-12, (part, k)

    def test_monotone_in_k_observed(self):
        # Not asserted by theory, but holds across this suite; treat a
        # failure here as an observation to investigate rather than a bug.
        for n in range(2, 8):
            for part in partitions(n):
                urn = urn_from_partition(part)
                prev = 0.0
                for k in range(0, n + 1):
                    d = urn_variational_distance(urn, k)
                    assert d >= prev - 1e-12, (part, k)
                    prev = d
