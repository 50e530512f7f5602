"""Distinguishability distances between no-signalling boxes.

Three nested measurement classes induce three distances:

* individual: all parties receive their inputs up front; the optimum is
  attained on a deterministic input tuple, so the distance is a max of
  per-input total-variation distances.
* adaptive: parties are measured one at a time and each input may depend
  on the outputs observed so far.  Computed by backward induction over
  the measurement order.
* general: supremum over all effects, i.e. linear functionals taking
  every no-signalling box into [0, 1].  Because P - Q has zero mass per
  input it equals the base norm of P - Q in the no-signalling cone, which
  is one LP; its dual, solved here, has one row per product of
  single-party basis boxes, and its optimum is the optimal effect.

All values use the 1/2 * L1 convention and lie in [0, 1].
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .box import DEFAULT_TOL, Box, deterministic_box, product, require_box
from .errors import ConvergenceError, ResourceLimitError, ShapeError
from .simplex import OPTIMAL, lp_solve

NS_DIMENSION_CAP = 10**4

# Tensor entries the adaptive backward induction may read (see
# adaptive_work).  At about 20 ns an entry on a 2-CPU Xeon with numpy 2.4,
# the cap is under half a second; (8,2,2) reads 8.4e6 entries in 0.16 s.
ADAPTIVE_WORK_CAP = 2 * 10**7


@dataclass(frozen=True)
class NSPolytopeH:
    """H-description of the no-signalling polytope in box coordinates.

    Equalities are one normalization row per joint input plus the
    per-party no-signalling generators; the only inequalities are
    entrywise nonnegativity (implicit x >= 0 in the LP solver).
    Redundant rows are permitted.  The rows of `span` are
    (1 + inputs (outputs - 1))**parties linearly independent product
    boxes that span the no-signalling boxes.
    """

    parties: int
    inputs: int
    outputs: int
    dim: int
    a_eq: np.ndarray
    b_eq: np.ndarray
    span: np.ndarray


def _flat_index(xs, outs, inputs, outputs, k):
    xi = 0
    for v in xs:
        xi = xi * inputs + v
    ai = 0
    for v in outs:
        ai = ai * outputs + v
    return xi * outputs**k + ai


@lru_cache(maxsize=32)
def ns_constraints(parties: int, inputs: int, outputs: int) -> NSPolytopeH:
    """Build the equality constraints defining no-signalling boxes."""
    k = parties
    dim = (inputs * outputs) ** k
    if dim > NS_DIMENSION_CAP:
        raise ResourceLimitError(f"polytope dimension {dim} exceeds {NS_DIMENSION_CAP}")
    a_k = outputs**k
    rows = []
    rhs = []
    for xi in range(inputs**k):
        row = np.zeros(dim)
        row[xi * a_k : (xi + 1) * a_k] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for i in range(k):
        rest = list(range(k))
        rest.remove(i)
        for x_rest in itertools.product(range(inputs), repeat=k - 1):
            for a_rest in itertools.product(range(outputs), repeat=k - 1):
                for t in range(1, inputs):
                    row = np.zeros(dim)
                    for ai in range(outputs):
                        xs = [0] * k
                        outs = [0] * k
                        for pos, p in enumerate(rest):
                            xs[p] = x_rest[pos]
                            outs[p] = a_rest[pos]
                        outs[i] = ai
                        xs[i] = t
                        row[_flat_index(xs, outs, inputs, outputs, k)] += 1.0
                        xs[i] = 0
                        row[_flat_index(xs, outs, inputs, outputs, k)] -= 1.0
                    rows.append(row)
                    rhs.append(0.0)
    # One party's boxes are spanned by the deterministic box answering 0
    # to every input and, per input x and output a > 0, the one answering
    # a at x and 0 elsewhere; their k-fold products span the k-party boxes.
    tables = [[0] * inputs] + [
        [a if y == x else 0 for y in range(inputs)] for x in range(inputs) for a in range(1, outputs)
    ]
    singles = [deterministic_box(table, outputs) for table in tables]
    span = np.array([product(fs).probs for fs in itertools.product(singles, repeat=k)])
    a_eq = np.array(rows)
    b_eq = np.array(rhs)
    for arr in (a_eq, b_eq, span):
        arr.setflags(write=False)
    return NSPolytopeH(parties, inputs, outputs, dim, a_eq, b_eq, span)


def polytope_extremum(objective, poly: NSPolytopeH, maximize: bool = True):
    """Optimal value and an optimal vertex of the polytope (basic solution)."""
    res = lp_solve(objective, a_eq=poly.a_eq, b_eq=poly.b_eq, maximize=maximize)
    if res.status != OPTIMAL:
        raise ConvergenceError(f"polytope LP ended with status {res.status}")
    return res.value, Box(poly.parties, poly.inputs, poly.outputs, res.x)


def random_ns_vertex(parties, inputs, outputs, rng) -> Box:
    """A vertex of the no-signalling polytope optimizing a random objective."""
    poly = ns_constraints(parties, inputs, outputs)
    _, vertex = polytope_extremum(rng.standard_normal(poly.dim), poly)
    return vertex


def random_ns_box(parties, inputs, outputs, rng, n_vertices: int = 4) -> Box:
    """Dirichlet mixture of random polytope vertices (covers nonlocal ones)."""
    vertices = [random_ns_vertex(parties, inputs, outputs, rng) for _ in range(n_vertices)]
    weights = rng.dirichlet(np.ones(n_vertices))
    probs = sum(w * v.probs for w, v in zip(weights, vertices))
    return Box(parties, inputs, outputs, probs)


def individual_distance(p: Box, q: Box) -> float:
    """Max over joint inputs of the total variation between output distributions.

    Deterministic input tuples suffice: the objective is affine in the
    input distribution.
    """
    if not p.same_shape(q):
        raise ShapeError("boxes differ in shape")
    k = p.parties
    pt = p.probs.reshape(p.inputs**k, p.outputs**k)
    qt = q.probs.reshape(p.inputs**k, p.outputs**k)
    return float(0.5 * np.abs(pt - qt).sum(axis=1).max())


@dataclass(frozen=True)
class AdaptiveStrategy:
    """Measurement order plus, per step, one input for every transcript.

    decisions[t] has length outputs**t and gives the input for party
    order[t] as a function of the rank of the t outputs seen so far
    (first output most significant).
    """

    order: tuple
    decisions: tuple


def adaptive_strategy_count(parties: int, inputs: int, outputs: int) -> int:
    """Number of deterministic adaptive strategies (orders times decision trees)."""
    per_order = 1
    for t in range(parties):
        per_order *= inputs ** (outputs**t)
    return math.factorial(parties) * per_order


def adaptive_work(parties: int, inputs: int, outputs: int) -> int:
    """Tensor entries read by the backward induction of adaptive_distance.

    After L parties are eliminated there is one tensor of (inputs *
    outputs)**(parties - L) entries per ordered choice of those parties.
    """
    xa = inputs * outputs
    return sum(math.perm(parties, m) * xa ** (parties - m + 1) for m in range(1, parties + 1))


def transcript_distribution(box: Box, strategy: AdaptiveStrategy) -> np.ndarray:
    """Joint distribution of the outputs produced by an adaptive strategy.

    Output t of the transcript is the output of party order[t].  Because
    the box is no-signalling, the chain rule collapses the product of
    conditionals to a single entry of the box at the inputs realized
    along each output path, so no division is needed.
    """
    k = box.parties
    a = box.outputs
    t_view = box.tensor
    dist = np.empty(a**k)
    for rank, outs in enumerate(itertools.product(range(a), repeat=k)):
        xs = [0] * k
        tr = 0
        for t in range(k):
            xs[strategy.order[t]] = strategy.decisions[t][tr]
            tr = tr * a + outs[t]
        a_by_party = [0] * k
        for t in range(k):
            a_by_party[strategy.order[t]] = outs[t]
        dist[rank] = t_view[tuple(xs) + tuple(a_by_party)]
    return dist


def adaptive_distance(p: Box, q: Box, tol: float = DEFAULT_TOL) -> float:
    """Max over adaptive strategies of the transcript total variation.

    Backward induction: the party measured last may choose its input
    after seeing every other output, so eliminating it from |P - Q| means
    summing over its output and maximizing over its input, pointwise in
    the other parties' axes.  Repeating this for every choice of the last
    party among those left, k times, yields one value per measurement
    order (k! in all); the distance is half their maximum.  Orders that
    end alike share their elimination steps, so the work is
    adaptive_work(k, |X|, |A|) tensor entries, capped by
    ADAPTIVE_WORK_CAP, instead of one pass per strategy.
    """
    if not p.same_shape(q):
        raise ShapeError("boxes differ in shape")
    k = p.parties
    work = adaptive_work(k, p.inputs, p.outputs)
    if work > ADAPTIVE_WORK_CAP:
        raise ResourceLimitError(f"adaptive induction reads {work} entries, over {ADAPTIVE_WORK_CAP}")
    require_box(p, tol, "first box")
    require_box(q, tol, "second box")
    # Axis 0 enumerates the orders of the parties eliminated so far; the
    # rest are x_1..x_m, a_1..a_m of the m parties left.
    t = np.abs(p.tensor - q.tensor)[None]
    for m in range(k, 0, -1):
        t = np.concatenate([t.sum(axis=1 + m + i).max(axis=1 + i) for i in range(m)])
    return 0.5 * float(t.max())


@dataclass(frozen=True)
class Effect:
    """Linear functional on boxes with values in [0, 1] on every NS box."""

    coeffs: np.ndarray

    def value(self, box: Box) -> float:
        return float(np.dot(self.coeffs, box.probs))


@dataclass(frozen=True)
class GeneralDistanceResult:
    value: float
    witness: Effect


def general_distance(p: Box, q: Box, tol: float = DEFAULT_TOL):
    """Trace distance sup over effects of a(P) - a(Q); returns (value, witness)."""
    res = general_distance_detailed(p, q, tol)
    return res.value, res.witness


def general_distance_detailed(p: Box, q: Box, tol: float = DEFAULT_TOL) -> GeneralDistanceResult:
    """The effect distance as the base norm of P - Q, by one LP.

    P - Q has zero mass per input, so the supremum over effects equals the
    least t with P - Q = S1 - S2 for S1, S2 in the no-signalling cone with
    mass t per input, i.e. the least mass of a cone element S1 >= (P-Q)+.
    The LP solved is its dual,

        maximize (P-Q)+ . lam  over lam >= 0,  lam . B = 1 for B in span,

    with `span` the product boxes of ns_constraints: lam takes every
    no-signalling box to 1.  It has (1 + |X| (|A| - 1))**k rows, where the
    primal has one per independent no-signalling equality (81 against 176
    at (4,2,2)).  The witness is lam zeroed where P - Q <= 0: it lies
    between 0 and lam, so it is an effect, and its value on P - Q is the
    LP's.  Both boxes must pass `require_box` at `tol`.
    """
    if not p.same_shape(q):
        raise ShapeError("boxes differ in shape")
    require_box(p, tol, "first box")
    require_box(q, tol, "second box")
    poly = ns_constraints(p.parties, p.inputs, p.outputs)
    diff = p.probs - q.probs
    ones = np.ones(len(poly.span))
    res = lp_solve(np.maximum(diff, 0.0), a_eq=poly.span, b_eq=ones, maximize=True)
    if res.status != OPTIMAL:
        raise ConvergenceError(f"base-norm LP ended with status {res.status}")
    coeffs = np.where(diff > 0.0, res.x, 0.0)
    return GeneralDistanceResult(res.value, Effect(coeffs))
