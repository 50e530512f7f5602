"""Distinguishability distances between no-signalling boxes.

Three nested measurement classes induce three distances:

* individual: all parties receive their inputs up front; the optimum is
  attained on a deterministic input tuple, so the distance is a max of
  per-input total-variation distances.
* adaptive: parties are measured one at a time and each input may depend
  on the outputs observed so far.  Computed by backward induction over
  the measurement order.
* general: supremum over all effects, i.e. linear functionals taking
  every no-signalling box into [0, 1].  Computed as a linear program over
  the no-signalling polytope via constraint generation.

All values use the 1/2 * L1 convention and lie in [0, 1].
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .box import DEFAULT_TOL, Box, is_no_signalling, uniform_box
from .errors import ConvergenceError, ResourceLimitError, ShapeError, SignallingError
from .simplex import OPTIMAL, lp_solve

NS_DIMENSION_CAP = 10**4

# Tensor entries the adaptive backward induction may read (see
# adaptive_work).  At about 20 ns an entry on a 2-CPU Xeon with numpy 2.4,
# the cap is under half a second; (8,2,2) reads 8.4e6 entries in 0.16 s.
ADAPTIVE_WORK_CAP = 2 * 10**7

# A box counts as violating an effect constraint beyond this threshold.
ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class NSPolytopeH:
    """H-description of the no-signalling polytope in box coordinates.

    Equalities are one normalization row per joint input plus the
    per-party no-signalling generators; the only inequalities are
    entrywise nonnegativity (implicit x >= 0 in the LP solver).
    Redundant rows are permitted.
    """

    parties: int
    inputs: int
    outputs: int
    dim: int
    a_eq: np.ndarray
    b_eq: np.ndarray


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
    a_eq = np.array(rows)
    b_eq = np.array(rhs)
    a_eq.setflags(write=False)
    b_eq.setflags(write=False)
    return NSPolytopeH(parties, inputs, outputs, dim, a_eq, b_eq)


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
    for name, b in (("first", p), ("second", q)):
        ok, v = is_no_signalling(b, tol)
        if not ok:
            raise SignallingError(f"{name} box is signalling", v)
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
    iterations: int
    working_set_size: int
    oracle_violation: float


def general_distance(p: Box, q: Box, tol: float = ORACLE_TOL):
    """Trace distance sup over effects of a(P) - a(Q); returns (value, witness)."""
    res = general_distance_detailed(p, q, tol)
    return res.value, res.witness


def general_distance_detailed(
    p: Box, q: Box, tol: float = ORACLE_TOL, max_iterations: int = 500
) -> GeneralDistanceResult:
    """Constraint generation for the effect-norm distance.

    The master LP maximizes <c, P-Q> over coefficient vectors c >= 0 with
    0 <= <c, R> <= 1 for every box R in a working set, seeded with the
    uniform box (which already bounds the master).  The separation oracle
    minimizes and maximizes <c, .> over the no-signalling polytope; any
    box violating the [0, 1] range joins the working set.  Restricting to
    c >= 0 loses no effects: the dual cone of the no-signalling polytope
    is generated by products of single-party positive functionals, which
    all admit entrywise-nonnegative coefficient representatives.  Since
    the complement e - a of a feasible effect is feasible, the signed
    maximum equals the sup of |a(P) - a(Q)|.

    Each added box is a vertex (basic optimal solution), so the working
    set grows within a finite set and the loop terminates.
    """
    if not p.same_shape(q):
        raise ShapeError("boxes differ in shape")
    for name, b in (("first", p), ("second", q)):
        ok, v = is_no_signalling(b, DEFAULT_TOL)
        if not ok:
            raise SignallingError(f"{name} box is signalling", v)
    poly = ns_constraints(p.parties, p.inputs, p.outputs)
    diff = p.probs - q.probs
    working = [uniform_box(p.parties, p.inputs, p.outputs).probs]

    value = None
    for iteration in range(1, max_iterations + 1):
        rows = np.array(working)
        a_ub = np.concatenate([rows, -rows], axis=0)
        b_ub = np.concatenate([np.ones(len(working)), np.zeros(len(working))])
        master = lp_solve(diff, a_ub=a_ub, b_ub=b_ub, maximize=True)
        if master.status != OPTIMAL:
            raise ConvergenceError(f"master LP ended with status {master.status}")
        coeffs = master.x
        value = master.value

        hi, vmax = polytope_extremum(coeffs, poly, maximize=True)
        lo, vmin = polytope_extremum(coeffs, poly, maximize=False)
        violation = max(hi - 1.0, -lo)
        if violation <= tol:
            witness = Effect(coeffs)
            return GeneralDistanceResult(
                float(value), witness, iteration, len(working), float(violation)
            )
        added = False
        for viol, vertex in ((hi - 1.0, vmax), (-lo, vmin)):
            if viol <= tol:
                continue
            if all(np.max(np.abs(vertex.probs - w)) > 1e-12 for w in working):
                working.append(vertex.probs)
                added = True
        if not added:
            raise ConvergenceError(
                "separation oracle repeated a known vertex",
                value=float(value),
                violation=float(violation),
            )
    raise ConvergenceError(
        f"constraint generation did not converge in {max_iterations} iterations",
        value=float(value),
        working_set=len(working),
    )
