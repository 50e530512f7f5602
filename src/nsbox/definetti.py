"""Separable decompositions and de Finetti mixtures for symmetric boxes.

A symmetric no-signalling box on n parties can be simulated on its first
m = floor(n / inputs) parties by a local model: split the n parties into
m blocks of `inputs` parties, measure every input on one particle of each
block ahead of time, and later answer input x for block i with the
recorded outcome.  That yields an exactly separable decomposition whose
factors are deterministic single-party boxes.

Averaging each term's factors and raising the average to a k-fold product
turns the decomposition into a mixture of i.i.d. boxes.  The k-party
marginal of the box differs from that mixture by at most

    min(2 k E / m, k (k - 1) / m),        E = outputs ** inputs,

the hypergeometric-vs-multinomial gap of drawing k of the m factors
without vs with replacement.
"""

from dataclasses import dataclass

import numpy as np

from .box import (
    DEFAULT_TOL,
    Box,
    deterministic_box,
    marginal,
    product,
    require_box,
    symmetry_violation,
)
from .errors import AsymmetryError

# Outcomes of the advance measurement below this probability are dropped.
SUPPORT_EPS = 1e-15


@dataclass(frozen=True)
class SeparableDecomposition:
    """Weighted products of deterministic single-party boxes.

    `baseline_inputs` is the input vector used for the advance
    measurement: party j (0-based) gets input j mod inputs.
    """

    parties: int
    inputs: int
    outputs: int
    terms: tuple  # ((weight, (factor Box, ...)), ...)
    baseline_inputs: tuple

    @property
    def total_weight(self) -> float:
        return float(sum(q for q, _ in self.terms))


@dataclass(frozen=True)
class DeFinettiMixture:
    """Convex combination of single-party boxes approximating a k-marginal
    by the k-fold product of each component, with a certified error bound."""

    k: int
    bound: float
    terms: tuple  # ((weight, single-party Box), ...)

    @property
    def total_weight(self) -> float:
        return float(sum(p for p, _ in self.terms))


def separable_decompose(p: Box, tol: float = DEFAULT_TOL) -> SeparableDecomposition:
    """Exact separable decomposition of the m-party marginal of a symmetric box.

    Reading the box at the baseline inputs y (party j measured with input
    j mod inputs) gives a distribution q over outcome strings b; outcome b
    contributes weight q_b and deterministic factors x -> b[i*inputs + x]
    for block i.  Reconstructing the decomposition returns exactly the
    marginal on the first m parties.
    """
    n, x_card, a_card = p.parties, p.inputs, p.outputs
    if n < x_card:
        raise ValueError(f"need at least inputs={x_card} parties, got {n}")
    sym = symmetry_violation(p)
    if sym > tol:
        raise AsymmetryError("decomposition requires a symmetric box", sym)
    require_box(p, tol, "decomposed box")

    m = n // x_card
    if m * x_card < n:
        p = marginal(p, range(m * x_card), tol)
        n = m * x_card
    y = tuple(j % x_card for j in range(n))
    weights = p.tensor[y].reshape(-1)

    terms = []
    for b_index, q in enumerate(weights):
        if q <= SUPPORT_EPS:
            continue
        digits = np.empty(n, dtype=int)
        rest = b_index
        for j in range(n - 1, -1, -1):
            digits[j] = rest % a_card
            rest //= a_card
        factors = tuple(
            deterministic_box(digits[i * x_card : (i + 1) * x_card], a_card)
            for i in range(m)
        )
        terms.append((float(q), factors))
    return SeparableDecomposition(m, x_card, a_card, tuple(terms), y)


def reconstruct(dec: SeparableDecomposition) -> Box:
    """Sum of weighted factor products: the box the decomposition represents."""
    acc = None
    for q, factors in dec.terms:
        probs = product(factors).probs
        acc = q * probs if acc is None else acc + q * probs
    if acc is None:
        raise ValueError("decomposition has no terms")
    return Box(dec.parties, dec.inputs, dec.outputs, acc)


def averaged_mixture(dec: SeparableDecomposition, k: int) -> DeFinettiMixture:
    """One i.i.d. component per distinct mean of a term's factors.

    Factor entries are 0 or 1, so a mean is exactly counts / m for the
    summed factor vector `counts`: terms with equal sums are merged, in
    first-seen order, and distinct means differ by at least 1/m.  The recorded bound is min(2kE/m, k(k-1)/m) with
    E = outputs ** inputs.
    """
    m = dec.parties
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m={m}, got k={k}")
    e_count = dec.outputs**dec.inputs
    bound = min(2.0 * k * e_count / m, k * (k - 1) / m)

    merged = {}  # summed factor vector bytes -> [counts, weight]
    for q, factors in dec.terms:
        counts = sum(f.probs for f in factors)
        entry = merged.setdefault(counts.tobytes(), [counts, 0.0])
        entry[1] += q
    terms = tuple(
        (w, Box(1, dec.inputs, dec.outputs, counts / m)) for counts, w in merged.values()
    )
    return DeFinettiMixture(k, bound, terms)


def definetti_approximation(p: Box, k: int, tol: float = DEFAULT_TOL) -> DeFinettiMixture:
    """De Finetti mixture for the k-party marginal of a symmetric box.

    Decomposes the box separably, then averages.  With m = floor(n/inputs)
    the bound equals min(2 k inputs E / (m inputs), inputs k (k-1) / (m inputs)),
    i.e. the n-party statement evaluated at n = m*inputs, which is
    conservative when inputs does not divide n.
    """
    return averaged_mixture(separable_decompose(p, tol), k)


def mixture_to_box(mixture: DeFinettiMixture) -> Box:
    """Materialize sum_t w_t B_t^(x k) as a k-party box."""
    acc = None
    for w, component in mixture.terms:
        probs = product([component] * mixture.k).probs
        acc = w * probs if acc is None else acc + w * probs
    if acc is None:
        raise ValueError("mixture has no terms")
    first = mixture.terms[0][1]
    return Box(mixture.k, first.inputs, first.outputs, acc)
