"""Independent reference values the benchmark checks the CLI output against.

None of these use nsbox.  Boxes are flat numpy arrays in the nsbox
layout; see gen.py.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from gen import ns_equalities

_HIGHS_TOL = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def general_distance(p, q, shape):
    """Effect (base-norm) distance by one LP solved with HiGHS.

    The distance is the least t such that P - Q = S1 - S2 with S1, S2 in
    the NS cone and mass t per joint input.  With S2 = S1 - (P - Q) that
    is: minimize t subject to S1 satisfying the NS rows with mass t and
    S1 >= max(P - Q, 0).
    """
    a_eq, _ = ns_equalities(*shape)
    n_norm = shape[1] ** shape[0]
    t_col = np.zeros((a_eq.shape[0], 1))
    t_col[:n_norm, 0] = -1.0
    a = sparse.hstack([a_eq, sparse.csr_matrix(t_col)]).tocsr()
    cost = np.zeros(a.shape[1])
    cost[-1] = 1.0
    lower = np.append(np.maximum(p - q, 0.0), 0.0)
    res = linprog(
        cost,
        A_eq=a,
        b_eq=np.zeros(a.shape[0]),
        bounds=list(zip(lower, [None] * len(lower))),
        method="highs",
        options=_HIGHS_TOL,
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def individual_distance(p, q, shape):
    k, x, a = shape
    return float(0.5 * np.abs(p - q).reshape(x**k, a**k).sum(axis=1).max())


def adaptive_distance(p, q, shape):
    """Adaptive distance by backward induction over each measurement order.

    For a fixed order the optimal input of each party depends only on the
    outputs seen before it, so the value is: starting from |P - Q| with
    axes (x, a) interleaved in that order, k times sum out the last output
    and maximize over the last input.
    """
    k, x, a = shape
    d = np.abs(p - q).reshape((x,) * k + (a,) * k)
    best = 0.0
    for order in itertools.permutations(range(k)):
        t = np.transpose(d, [ax for s in order for ax in (s, k + s)])
        for _ in range(k):
            t = t.sum(axis=-1).max(axis=-1)
        best = max(best, float(t))
    return 0.5 * best


def marginal_first(probs, shape, m):
    """Marginal on the first m parties (others at input 0, outputs summed)."""
    k, x, a = shape
    t = probs.reshape((x,) * k + (a,) * k)
    t = t[(slice(None),) * m + (0,) * (k - m)]
    return t.sum(axis=tuple(range(2 * m, m + k))).reshape(-1)


def product_of_singles(weights, factors, parties, inputs, outputs, chunk=512):
    """sum_t w_t (x)_i factors[t, i] as a flat box; factors is (T, parties, X*A)."""
    acc = np.zeros((inputs * outputs) ** parties)
    for s in range(0, len(weights), chunk):
        g = factors[s : s + chunk, 0]
        for i in range(1, parties):
            g = (g[:, :, None] * factors[s : s + chunk, i, None, :]).reshape(len(g), -1)
        acc += weights[s : s + chunk] @ g
    # Axes are (x1, a1, x2, a2, ...); regroup to (x1..xk, a1..ak).
    t = acc.reshape((inputs, outputs) * parties)
    axes = list(range(0, 2 * parties, 2)) + list(range(1, 2 * parties, 2))
    return np.transpose(t, axes).reshape(-1)


def definetti_bound(n, inputs, outputs, k):
    m = n // inputs
    return min(2.0 * k * outputs**inputs / m, k * (k - 1) / m)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _falling(n, k):
    return math.prod(range(n - k + 1, n + 1))


def urn_distance(balls, k):
    """Exact total variation between label sequences drawn with and
    without replacement, summed over count vectors (type classes)."""
    counts = list(Counter(balls).values())
    n = len(balls)
    m_den, h_den = n**k, _falling(n, k)
    total = 0
    for comp in _compositions(k, len(counts)):
        sequences = math.factorial(k) // math.prod(math.factorial(c) for c in comp)
        m_num = math.prod(kj**c for kj, c in zip(counts, comp))
        h_num = math.prod(_falling(kj, c) for kj, c in zip(counts, comp))
        total += sequences * abs(h_num * m_den - m_num * h_den)
    return Fraction(total, 2 * m_den * h_den)


def quantum_distance(terms, n, d, k):
    """Unhalved trace distance between the k-party reduced state and the
    mixture of k-fold powers of flat averages, by numpy.linalg.eigvalsh."""
    tuples = np.array(list(itertools.permutations(range(n), k)))
    dim = d**k
    rho = np.zeros((dim, dim), dtype=complex)
    mix = np.zeros((dim, dim), dtype=complex)
    for w, vecs in terms:
        rows = vecs[tuples[:, 0]]
        for p in range(1, k):
            rows = (rows[:, :, None] * vecs[tuples[:, p]][:, None, :]).reshape(len(tuples), -1)
        rho += (w / len(tuples)) * (rows.T @ rows.conj())
        sigma = vecs.T @ vecs.conj() / n
        power = sigma
        for _ in range(k - 1):
            power = np.kron(power, sigma)
        mix += w * power
    return float(np.abs(np.linalg.eigvalsh(rho - mix)).sum())
