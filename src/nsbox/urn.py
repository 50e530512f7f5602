"""Exact hypergeometric vs multinomial comparison for labelled urns.

Drawing k items from an urn of n labelled balls, with replacement, gives
the multinomial distribution M (every ordered position tuple has mass
1/n^k); without replacement it gives the hypergeometric distribution H
(mass 1/(n(n-1)...(n-k+1)) on distinct tuples, 0 otherwise).  The exported
distance is taken between the induced *label*-sequence distributions,
using the 1/2 * L1 (total variation) convention.

Both label-sequence distributions are exchangeable, so each depends on a
sequence only through its count vector (how many times each label was
drawn), and the distance is a sum over count vectors rather than over
label sequences (Diaconis & Freedman 1980).
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

# Count vectors, partial ones included, that urn_variational_distance may
# build (see count_vector_work).  At the cap (c=3, k=2200) the sum took
# 0.6 s and 130 MB on a 2-CPU Xeon with Python 3.11 and numpy 2.4.
ENUMERATION_CAP = 5 * 10**6


@dataclass(frozen=True)
class Urn:
    """An urn of n balls carrying integer labels (repeats allowed)."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(int(v) for v in self.labels)
        if not labels:
            raise ValueError("urn must contain at least one ball")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def counts(self) -> dict:
        return dict(Counter(self.labels))

    @property
    def distinct(self) -> tuple:
        return tuple(sorted(set(self.labels)))


def _check_positions(urn: Urn, positions):
    positions = [int(p) for p in positions]
    if any(p < 0 or p >= urn.n for p in positions):
        raise ValueError(f"positions must lie in 0..{urn.n - 1}: {positions}")
    return positions


def multinomial_pmf(urn: Urn, positions) -> float:
    """Probability 1/n^k of an ordered position tuple when drawing with replacement."""
    positions = _check_positions(urn, positions)
    return urn.n ** (-float(len(positions)))


def hypergeometric_pmf(urn: Urn, positions) -> float:
    """Probability of an ordered position tuple when drawing without replacement.

    Repeated positions get probability 0; distinct tuples get
    1/(n(n-1)...(n-k+1)).
    """
    positions = _check_positions(urn, positions)
    k = len(positions)
    if k > urn.n:
        raise ValueError(f"cannot draw {k} balls without replacement from {urn.n}")
    if len(set(positions)) != k:
        return 0.0
    denom = 1.0
    for t in range(k):
        denom *= urn.n - t
    return 1.0 / denom


def multinomial_label_pmf(urn: Urn, label_seq) -> float:
    counts = urn.counts
    p = 1.0
    for lab in label_seq:
        p *= counts.get(int(lab), 0) / urn.n
    return p


def hypergeometric_label_pmf(urn: Urn, label_seq) -> float:
    label_seq = [int(v) for v in label_seq]
    if len(label_seq) > urn.n:
        raise ValueError("sequence longer than the urn")
    counts = dict(urn.counts)
    p = 1.0
    for t, lab in enumerate(label_seq):
        c = counts.get(lab, 0)
        if c <= 0:
            return 0.0
        p *= c / (urn.n - t)
        counts[lab] = c - 1
    return p


def count_vector_work(c: int, k: int) -> int:
    """Count vectors, partial ones included, built for c labels and k draws.

    After the first i < c labels the recursion holds one partial vector
    per way of drawing at most k balls with those labels, C(k + i, i) of
    them, which sum to C(k + c, c - 1) - 1; the last label adds the
    C(k + c - 1, c - 1) complete count vectors.
    """
    return math.comb(k + c, c - 1) - 1 + math.comb(k + c - 1, c - 1)


def urn_variational_distance(urn: Urn, k: int) -> float:
    """Exact 1/2 * sum over label sequences of |H(s) - M(s)|, by count vectors.

    Sums, over the C(k + c - 1, c - 1) count vectors (k_1..k_c) of k draws
    from c distinct labels with ball counts c_i,

        | prod_i C(c_i, k_i) / C(n, k)  -  k!/prod_i k_i! * prod_i (c_i/n)^k_i |,

    the hypergeometric and multinomial masses of each type class.  The
    vectors are built one label at a time as numpy arrays of log masses,
    so no factor overflows; ENUMERATION_CAP bounds count_vector_work.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > urn.n:
        raise ValueError(f"k={k} exceeds urn size {urn.n}")
    counts = list(urn.counts.values())
    # H and M agree on single draws and on one-label urns; return those
    # zeros exactly rather than as a difference of rounded logarithms.
    if k < 2 or len(counts) == 1:
        return 0.0
    work = count_vector_work(len(counts), k)
    if work > ENUMERATION_CAP:
        raise ResourceLimitError(f"{work} count vectors for {len(counts)} labels and k={k} "
                                 f"exceed {ENUMERATION_CAP}")
    draws = np.arange(k + 1)
    log_fact = np.array([math.log(math.factorial(j)) for j in range(k + 1)])

    def log_masses(c):
        """log C(c, j) and log(c^j / j!) for j = 0..k draws of one label."""
        log_h = np.array([math.log(math.comb(c, j)) if j <= c else -math.inf for j in draws])
        return log_h, draws * math.log(c) - log_fact

    log_h, log_m, left = np.zeros(1), np.zeros(1), np.array([k])
    for c in counts[:-1]:
        lh, lm = log_masses(c)
        # Extend every partial vector by each j = 0..left draws of this label.
        src = np.repeat(np.arange(left.size), left + 1)
        j = np.arange(src.size) - np.repeat(np.cumsum(left + 1) - (left + 1), left + 1)
        log_h, log_m, left = log_h[src] + lh[j], log_m[src] + lm[j], left[src] - j
    lh, lm = log_masses(counts[-1])  # the last label takes the draws left
    log_h += lh[left] - math.log(math.comb(urn.n, k))
    log_m += lm[left] + log_fact[k] - k * math.log(urn.n)
    return 0.5 * float(np.abs(np.exp(log_h) - np.exp(log_m)).sum())


def df_bound(n: int, k: int, c: float) -> float:
    """Diaconis-Freedman style bound min(2kc/n, k(k-1)/n) on the distance."""
    if n < 1 or k < 0 or c < 1:
        raise ValueError("require n >= 1, k >= 0, c >= 1")
    return min(2.0 * k * c / n, k * (k - 1) / n)
