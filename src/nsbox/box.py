"""Dense k-party conditional probability distributions ("boxes").

A box stores P[A^k = a^k | X^k = x^k] for k parties that each accept an
input from X = {0..inputs-1} and produce an output from A = {0..outputs-1}.
The flat layout is

    idx = x_index * outputs**k + a_index

where x_index encodes (x_1..x_k) in base `inputs` and a_index encodes
(a_1..a_k) in base `outputs`, party 1 most significant in both.  The same
order is used by the JSON wire format, so serialization is a plain dump of
``probs``.

All operations are pure: they never mutate their arguments and return
fresh boxes.  Party indices are 0-based throughout.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ShapeError, SignallingError

DEFAULT_TOL = 1e-9

# Orbit averages (symmetrize) refuse to go past this party count.
MAX_SYMMETRIZE_PARTIES = 8


@dataclass(frozen=True, eq=False)
class Box:
    parties: int
    inputs: int
    outputs: int
    probs: np.ndarray

    def __post_init__(self):
        if self.parties < 1 or self.inputs < 1 or self.outputs < 1:
            raise ShapeError("parties, inputs and outputs must be positive")
        probs = np.ascontiguousarray(np.asarray(self.probs, dtype=float).reshape(-1))
        expected = (self.inputs * self.outputs) ** self.parties
        if probs.size != expected:
            raise ShapeError(
                f"probs has length {probs.size}, expected "
                f"(inputs*outputs)**parties = {expected}"
            )
        if not np.isfinite(probs).all():
            raise ValueError("probs must be finite (found nan or inf)")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def tensor(self) -> np.ndarray:
        """View shaped (inputs,)*k + (outputs,)*k, axes x_1..x_k, a_1..a_k."""
        k = self.parties
        return self.probs.reshape((self.inputs,) * k + (self.outputs,) * k)

    def entry(self, xs, outs) -> float:
        return float(self.tensor[tuple(xs) + tuple(outs)])

    def same_shape(self, other: "Box") -> bool:
        return (
            self.parties == other.parties
            and self.inputs == other.inputs
            and self.outputs == other.outputs
        )

    def __repr__(self):
        return (
            f"Box(parties={self.parties}, inputs={self.inputs}, "
            f"outputs={self.outputs})"
        )


@dataclass(frozen=True)
class Permutation:
    """A bijection on parties {0..k-1}; mapping[i] is the image of party i."""

    mapping: tuple

    def __post_init__(self):
        mapping = tuple(int(v) for v in self.mapping)
        k = len(mapping)
        if sorted(mapping) != list(range(k)):
            raise ValueError(f"not a bijection on 0..{k - 1}: {mapping}")
        object.__setattr__(self, "mapping", mapping)

    @property
    def size(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.mapping[other.mapping[i]] for i in range(self.size)))

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(k)))

    @classmethod
    def transposition(cls, k: int, i: int, j: int) -> "Permutation":
        mapping = list(range(k))
        mapping[i], mapping[j] = mapping[j], mapping[i]
        return cls(tuple(mapping))


@dataclass(frozen=True)
class ValidationReport:
    normalization_violation: float
    negativity_violation: float
    signalling_violation: float

    def is_valid(self, tol: float = DEFAULT_TOL) -> bool:
        return (
            self.normalization_violation <= tol
            and self.negativity_violation <= tol
            and self.signalling_violation <= tol
        )


def validate(box: Box, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Exact maximal violations of normalization, nonnegativity and no-signalling."""
    k = box.parties
    table = box.probs.reshape(box.inputs**k, box.outputs**k)
    norm = float(np.max(np.abs(table.sum(axis=1) - 1.0)))
    neg = float(max(0.0, -np.min(box.probs)))
    return ValidationReport(norm, neg, signalling_violation(box))


def require_box(box: Box, tol: float, name: str) -> None:
    """Raise unless the box is normalized, nonnegative and no-signalling.

    A signalling box raises SignallingError; a non-normalized or negative
    one raises ValueError naming the violation.
    """
    report = validate(box, tol)
    if report.signalling_violation > tol:
        raise SignallingError(f"{name} is signalling", report.signalling_violation)
    if not report.is_valid(tol):
        raise ValueError(
            f"{name} is not a box: normalization violation "
            f"{report.normalization_violation:.3e}, negativity violation "
            f"{report.negativity_violation:.3e}"
        )


def signalling_violation(box: Box) -> float:
    """Max deviation over the per-party no-signalling conditions.

    For each party i the distribution of the other parties' outputs,
    obtained by summing over a_i, must not depend on x_i.  The returned
    value is the largest max-minus-min spread across any x_i fibre; a nan
    anywhere makes it nan, so that it fails every `<= tol` test.
    """
    k = box.parties
    spreads = []
    for i in range(k):
        t = box.tensor.sum(axis=k + i)  # sum over a_i; axes: x_1..x_k, a_{-i}
        spreads.append((t.max(axis=i) - t.min(axis=i)).max())
    return float(np.max(spreads))


def is_no_signalling(box: Box, tol: float = DEFAULT_TOL):
    """Whether the box satisfies all per-party no-signalling conditions.

    Returns (bool, max_violation).  The per-party conditions imply the
    conditions for every subset of parties (checked as a test property).
    """
    v = signalling_violation(box)
    return v <= tol, v


def marginal(box: Box, subset, tol: float = DEFAULT_TOL) -> Box:
    """Reduced box on an ordered subset of parties.

    The discarded parties' outputs are summed at the fixed inputs
    x = 0; by no-signalling the result does not depend on that choice.
    Raises SignallingError (carrying the violation) when the input box
    signals beyond `tol`.
    """
    subset = [int(p) for p in subset]
    k = box.parties
    if len(set(subset)) != len(subset) or any(p < 0 or p >= k for p in subset):
        raise ValueError(f"subset must be distinct parties in 0..{k - 1}: {subset}")
    ok, v = is_no_signalling(box, tol)
    if not ok:
        raise SignallingError("marginal of a signalling box is ill-defined", v)

    others = [p for p in range(k) if p not in subset]
    idx = [slice(None)] * (2 * k)
    for p in others:
        idx[p] = 0
    t = box.tensor[tuple(idx)]
    # Remaining axes: x for parties in `subset` (original order), then all a.
    t = t.sum(axis=tuple(len(subset) + p for p in others))
    # Reorder both x and a axes to the requested party order.
    pos_of = {party: axis for axis, party in enumerate(sorted(subset))}
    perm = [pos_of[p] for p in subset]
    t = np.transpose(t, axes=perm + [len(subset) + q for q in perm])
    return Box(len(subset), box.inputs, box.outputs, t.reshape(-1))


def permute(box: Box, perm: Permutation) -> Box:
    """Relabel parties: result[a_1..|x_1..] = box[a_{p^-1(1)}..|x_{p^-1(1)}..].

    Pure reindexing, no arithmetic.  Note the composition order this
    formula induces: permuting by sigma and then by pi equals a single
    permute by sigma.compose(pi).
    """
    k = box.parties
    if perm.size != k:
        raise ValueError("permutation size does not match party count")
    # transpose with axes=p gives B[i] = A[j] with j_s = i_{p^-1(s)}, which
    # is exactly the relabelling formula when p is the permutation itself.
    mp = perm.mapping
    axes = [mp[t] for t in range(k)] + [k + mp[t] for t in range(k)]
    t = np.transpose(box.tensor, axes=axes)
    return Box(k, box.inputs, box.outputs, np.ascontiguousarray(t).reshape(-1))


def symmetrize(box: Box) -> Box:
    """Average of the box over all party permutations.

    Computed by folding transposition cosets: S_j is the disjoint union of
    (t j)S_{j-1} over t <= j, so averaging party j into an already
    ( j-1 )-symmetric tensor needs only j transpositions.  The result is
    identical to the k! orbit average.
    """
    k = box.parties
    if k > MAX_SYMMETRIZE_PARTIES:
        raise ResourceLimitError(f"symmetrize supports at most {MAX_SYMMETRIZE_PARTIES} parties")
    t = box.tensor.copy()
    for j in range(1, k):
        acc = t.copy()
        for i in range(j):
            axes = list(range(2 * k))
            axes[i], axes[j] = axes[j], axes[i]
            axes[k + i], axes[k + j] = axes[k + j], axes[k + i]
            acc += np.transpose(t, axes=axes)
        t = acc / (j + 1)
    return Box(k, box.inputs, box.outputs, t.reshape(-1))


def is_symmetric(box: Box, tol: float = DEFAULT_TOL) -> bool:
    """Invariance under all transpositions (which generate the full group)."""
    return symmetry_violation(box) <= tol


def symmetry_violation(box: Box) -> float:
    """Max entry deviation under any transposition of parties (nan if any is nan)."""
    k = box.parties
    deviations = [
        np.max(np.abs(permute(box, Permutation.transposition(k, i, j)).probs - box.probs))
        for i, j in itertools.combinations(range(k), 2)
    ]
    return float(np.max(deviations, initial=0.0))


def product(factors) -> Box:
    """Tensor product of boxes; party counts add, alphabets must agree."""
    factors = list(factors)
    if not factors:
        raise ValueError("product of zero boxes is undefined")
    inputs, outputs = factors[0].inputs, factors[0].outputs
    for f in factors[1:]:
        if f.inputs != inputs or f.outputs != outputs:
            raise ShapeError("product factors must share input/output alphabets")
    t = factors[0].tensor
    k = factors[0].parties
    for f in factors[1:]:
        kf = f.parties
        u = np.multiply.outer(t, f.tensor)
        # Axes now x_1..x_k, a_1..a_k, x'_1..x'_kf, a'_1..a'_kf.
        axes = (
            list(range(k))
            + list(range(2 * k, 2 * k + kf))
            + list(range(k, 2 * k))
            + list(range(2 * k + kf, 2 * (k + kf)))
        )
        t = np.transpose(u, axes=axes)
        k += kf
    return Box(k, inputs, outputs, np.ascontiguousarray(t).reshape(-1))


def mix(weighted, tol: float = DEFAULT_TOL) -> Box:
    """Convex combination sum w_i * B_i of same-shape boxes."""
    weighted = [(float(w), b) for w, b in weighted]
    if not weighted:
        raise ValueError("mix of zero boxes is undefined")
    first = weighted[0][1]
    total = 0.0
    acc = np.zeros_like(first.probs)
    for w, b in weighted:
        if w < -tol:
            raise ValueError(f"negative mixture weight {w}")
        if not b.same_shape(first):
            raise ShapeError("mixed boxes must share shape")
        total += w
        acc = acc + w * b.probs
    if abs(total - 1.0) > tol:
        raise ValueError(f"mixture weights sum to {total}, expected 1")
    return Box(first.parties, first.inputs, first.outputs, acc)


def deterministic_box(table, outputs: int) -> Box:
    """Single-party box P[a|x] = [a == table[x]] for a function table X -> A."""
    table = [int(v) for v in table]
    inputs = len(table)
    if any(v < 0 or v >= outputs for v in table):
        raise ValueError(f"table values must lie in 0..{outputs - 1}: {table}")
    probs = np.zeros((inputs, outputs))
    probs[np.arange(inputs), table] = 1.0
    return Box(1, inputs, outputs, probs.reshape(-1))


def all_deterministic_boxes(inputs: int, outputs: int):
    """The outputs**inputs deterministic single-party boxes, lexicographic."""
    return [
        deterministic_box(table, outputs)
        for table in itertools.product(range(outputs), repeat=inputs)
    ]


def uniform_box(parties: int, inputs: int, outputs: int) -> Box:
    n = (inputs * outputs) ** parties
    return Box(parties, inputs, outputs, np.full(n, outputs ** (-float(parties))))


def sequential_condition(box: Box, measured, next_party: int, next_x: int) -> np.ndarray:
    """Output distribution of the next party given a measurement transcript.

    `measured` lists (party, input, output) triples for the parties already
    measured.  Inputs of untouched parties are set to 0 internally; by
    no-signalling the conditional does not depend on that choice.  A
    zero-probability transcript conditions to the uniform distribution.
    """
    k = box.parties
    measured = [(int(p), int(x), int(a)) for p, x, a in measured]
    parties_seen = [p for p, _, _ in measured]
    if len(set(parties_seen)) != len(parties_seen):
        raise ValueError("measured parties must be distinct")
    if next_party in parties_seen or not 0 <= next_party < k:
        raise ValueError(f"invalid next party {next_party}")

    xs = [0] * k
    for p, x, _ in measured:
        xs[p] = x
    xs[next_party] = next_x
    t = box.tensor[tuple(xs)]  # output tensor, axes a_1..a_k
    idx = [slice(None)] * k
    for p, _, a in measured:
        idx[p] = a
    t = t[tuple(idx)]
    # Remaining axes are the unmeasured parties in increasing order.
    remaining = [p for p in range(k) if p not in parties_seen]
    axis = remaining.index(next_party)
    num = t.sum(axis=tuple(i for i in range(len(remaining)) if i != axis))
    den = float(num.sum())
    if den <= 0.0:
        return np.full(box.outputs, 1.0 / box.outputs)
    return num / den


def max_entry_deviation(a: Box, b: Box) -> float:
    if not a.same_shape(b):
        raise ShapeError("boxes differ in shape")
    return float(np.max(np.abs(a.probs - b.probs)))


def boxes_equal(a: Box, b: Box, tol: float = DEFAULT_TOL) -> bool:
    return max_entry_deviation(a, b) <= tol
