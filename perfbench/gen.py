"""Seeded input generators for the benchmark.

Everything here is independent of the nsbox package: boxes are plain
numpy arrays in the nsbox index layout (idx = x_index * A**k + a_index,
party 1 most significant) and are written in the nsbox JSON formats.
The program under test only ever sees the files written here.
"""

import json
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def ns_equalities(parties, inputs, outputs):
    """Sparse normalization and per-party no-signalling rows, as (A, b).

    Row block 1: one normalization row per joint input (rhs 1).  Row
    block 2: for each party i, each input t > 0 and each assignment of
    the other parties' inputs and outputs, the marginal of the others at
    x_i = t equals the one at x_i = 0 (rhs 0).
    """
    k, x, a = parties, inputs, outputs
    dim = (x * a) ** k
    idx = np.arange(dim).reshape((x,) * k + (a,) * k)
    norm = idx.reshape(x**k, a**k)
    rows = [np.repeat(np.arange(x**k), a**k)]
    cols = [norm.reshape(-1)]
    vals = [np.ones(dim)]
    n_rows = x**k
    for i in range(k):
        # Axes (x_i, a_i, rest...), rest flattened into one index.
        t = np.moveaxis(idx, (i, k + i), (0, 1)).reshape(x, a, -1)
        rest = t.shape[2]
        for xi in range(1, x):
            r = n_rows + np.arange(rest)
            for sign, block in ((1.0, t[xi]), (-1.0, t[0])):
                rows.append(np.tile(r, a))
                cols.append(block.reshape(-1))
                vals.append(np.full(a * rest, sign))
            n_rows += rest
    mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, dim),
    )
    rhs = np.zeros(n_rows)
    rhs[: x**k] = 1.0
    return mat, rhs


def ns_vertex(eqs, rng):
    """A vertex of the NS polytope given by ``eqs = ns_equalities(...)``
    that maximizes a Gaussian objective.

    The same construction as nsbox.random_ns_vertex, solved with HiGHS's
    dual simplex (which returns a basic solution) so that shapes beyond
    the reach of the program's own solver can be generated too.
    """
    a_eq, b_eq = eqs
    res = linprog(
        -rng.standard_normal(a_eq.shape[1]),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ds",
    )
    if res.status != 0:
        raise RuntimeError(f"vertex LP failed: {res.message}")
    return np.clip(res.x, 0.0, None)


def dirichlet_mix(vertices, rng, count):
    """Dirichlet-weighted mixture of `count` vertices drawn from a pool."""
    pick = rng.choice(len(vertices), size=count, replace=False)
    w = rng.dirichlet(np.ones(count))
    return sum(wi * vertices[j] for wi, j in zip(w, pick))


def tensor_product(factors, inputs, outputs):
    """Flat probs of the product of boxes given as (flat probs, parties)."""
    t = None
    x_axes, a_axes = [], []
    for probs, k in factors:
        pos = 0 if t is None else t.ndim
        x_axes.extend(range(pos, pos + k))
        a_axes.extend(range(pos + k, pos + 2 * k))
        f = probs.reshape((inputs,) * k + (outputs,) * k)
        t = f if t is None else np.multiply.outer(t, f)
    return np.ascontiguousarray(np.transpose(t, x_axes + a_axes)).reshape(-1)


@lru_cache(maxsize=None)
def _orbits(parties, inputs, outputs):
    """Orbit number of every box entry under party permutations.

    An entry's orbit is fixed by how many parties hold each (input,
    output) pair.
    """
    k, x, a = parties, inputs, outputs
    x_index, a_index = np.divmod(np.arange((x * a) ** k), a**k)
    key = np.zeros(x_index.size, dtype=np.int64)
    for p in range(k):
        pair = (x_index // x ** (k - 1 - p) % x) * a + a_index // a ** (k - 1 - p) % a
        key += (k + 1) ** pair  # one more party holding this pair
    orbit = np.unique(key, return_inverse=True)[1]
    return orbit, np.bincount(orbit)


def orbit_means(probs, parties, inputs, outputs):
    """Symmetrization: every entry replaced by the mean over its orbit, so
    symmetry is exact."""
    orbit, size = _orbits(parties, inputs, outputs)
    return (np.bincount(orbit, weights=probs) / size)[orbit]


def symmetric_ns_box(parties, inputs, outputs, rng, pair_vertices):
    """Random symmetric NS box with full support.

    The symmetrization of a mixture of a product of two-party NS vertices
    (nonlocal content) and i.i.d. powers of random single-party boxes
    (which give every outcome string positive weight).
    """
    n = parties
    pairs = [(pair_vertices[j], 2) for j in rng.choice(len(pair_vertices), n // 2)]
    w = rng.dirichlet(np.ones(4))
    acc = w[0] * tensor_product(pairs, inputs, outputs)
    for wi in w[1:]:
        single = rng.dirichlet(np.ones(outputs), size=inputs).reshape(-1)
        acc += wi * tensor_product([(single, 1)] * n, inputs, outputs)
    return orbit_means(acc, n, inputs, outputs)


def random_urn(labels, size, rng):
    """An urn of `size` balls using every one of `labels` distinct labels."""
    extra = rng.integers(0, labels, size=size - labels)
    balls = np.concatenate([np.arange(labels), extra])
    rng.shuffle(balls)
    return [int(v) for v in balls]


def random_quantum_spec(n, d, terms, rng):
    """Mixture of `terms` lists of n random unit vectors in dimension d."""
    weights = rng.dirichlet(np.ones(terms))
    out = []
    for w in weights:
        vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        out.append((float(w), vecs))
    return out


def write_box(path, probs, parties, inputs, outputs):
    """Box JSON with exact doubles (%.17g round-trips every double).

    Each distinct value is formatted once: symmetric boxes have few.
    """
    values, where = np.unique(probs, return_inverse=True)
    text = np.array(["%.17g" % v for v in values.tolist()], dtype=object)[where]
    with open(path, "w") as fh:
        fh.write(f'{{"parties": {parties}, "inputs": {inputs}, "outputs": {outputs}, "probs": [')
        fh.write(",".join(text.tolist()))
        fh.write("]}\n")


def write_quantum_spec(path, n, d, terms):
    obj = {
        "n": n,
        "d": d,
        "terms": [
            {"w": w, "states": [[[z.real, z.imag] for z in vec.tolist()] for vec in vecs]}
            for w, vecs in terms
        ],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
