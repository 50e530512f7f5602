"""The three workloads: ladders of CLI jobs, their inputs and their checks.

A workload is a list of ladders.  A ladder is one verb stepping through
growing shapes under one fixed per-job time budget; it stops at its
first unsolved rung (see run.run_pass).  Each ladder ends one or two
rungs past the largest shape the seed solves within the budget (its
frontier rungs), so that a later change can lift the frontier.  Budgets
are at least 2x away from every rung's seed time on either side.

Every job gets inputs of its own: no file, and no box, is used twice
in one pass.  Checks run outside the timed region and compare what the
CLI printed or wrote against refs.py.
"""

import json
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import gen
import refs


class Wrong(Exception):
    """A job's output disagrees with its reference."""


@dataclass
class Job:
    shape: str
    argv: list
    check: partial  # check(stdout) raises Wrong; picklable, to cross from set-up


@dataclass
class LadderSpec:
    name: str
    verb: str  # key of JOB_MAKERS
    metric: str | None  # end-to-end verb metric the rung times sum into
    budget: float  # seconds per job
    rungs: list
    frontier: int = 0  # trailing rungs the seed does not solve within budget
    reps: int = 1  # jobs per rung, each on its own input; the rung takes their median


@dataclass
class Ladder:
    spec: LadderSpec
    rungs: list = field(default_factory=list)  # one list of jobs per rung


def _close(label, got, want, tol):
    if not abs(got - want) <= tol:
        raise Wrong(f"{label} {got!r} vs reference {want!r} (tol {tol:g})")


def _lines(stdout):
    """The 'name value' lines a verb prints, as a dict of strings."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2:
            out[parts[0]] = parts[1]
    return out


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise Wrong(f"not a number: {text!r}") from None


# ---------------------------------------------------------------- lp

# (parties, inputs, outputs) in order of box dimension (X*A)**k.
LP_SHAPES = [(3, 2, 2), (2, 3, 3), (3, 3, 2), (4, 2, 2), (4, 3, 2)]

# The general distance's time at one shape spreads over an order of
# magnitude between inputs: at (2,3,3) constraint generation takes from
# 0.05 to 2 s, at (3,3,2) from 1 s to more than 10 s.  So each general
# rung runs five inputs and counts their median, and the 0.5 s budget
# puts (3,3,2) on the frontier: no input has solved it in 0.8 s at the seed.
LP = [
    LadderSpec("individual", "individual", None, 2.0, LP_SHAPES),
    LadderSpec("adaptive", "adaptive", "verb2_s", 3.0, LP_SHAPES, frontier=2),
    LadderSpec("general", "general", "verb1_s", 0.5, LP_SHAPES[:4], frontier=2, reps=5),
]


def _lp_check(method, p, q, shape, stdout):
    value = _number(stdout.strip())
    ind = refs.individual_distance(p, q, shape)
    adp = refs.adaptive_distance(p, q, shape)
    gen_ = refs.general_distance(p, q, shape)
    want = {"individual": ind, "adaptive": adp, "general": gen_}[method]
    _close(method, value, want, 1e-6 if method == "general" else 1e-9)
    if not ind - 1e-9 <= value <= gen_ + 1e-6:
        raise Wrong(f"{method} {value} outside [individual {ind}, general {gen_}]")


def _distance_job(method):
    def make(shape, rng, tmp, tag, pools):
        if shape not in pools:
            eqs = gen.ns_equalities(*shape)
            pools[shape] = [gen.ns_vertex(eqs, rng) for _ in range(6)]
        p = gen.dirichlet_mix(pools[shape], rng, 4)
        r = gen.dirichlet_mix(pools[shape], rng, 4)
        q = 0.7 * p + 0.3 * r
        paths = [os.path.join(tmp, f"{tag}-{s}.json") for s in "pq"]
        for path, box in zip(paths, (p, q)):
            gen.write_box(path, box, *shape)
        argv = ["distance", "--method", method] + paths
        return Job(str(shape), argv, partial(_lp_check, method, p, q, shape))

    return make


# ---------------------------------------------------------- definetti

DEFINETTI_SHAPES = [(6, 3, 2), (6, 2, 3), (8, 2, 2), (8, 2, 3)]

# The (8,2,3) box is 40 MB of JSON: at the seed, lemma2 takes 2.3-4.4 s
# and definetti 4.5-8 s on it, so with these budgets it is the frontier of
# both box-size ladders.  Growing k instead grows the k-party LP.
DEFINETTI = [
    LadderSpec("lemma2", "lemma2", "verb2_s", 0.8, DEFINETTI_SHAPES, frontier=1),
    LadderSpec("definetti-k2", "definetti", "verb1_s", 1.5, [(s, 2) for s in DEFINETTI_SHAPES],
               frontier=1),
    LadderSpec("definetti-k", "definetti", "verb1_s", 1.5, [((8, 2, 2), 3), ((8, 2, 2), 4)],
               frontier=1),
]


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise Wrong(f"cannot read {os.path.basename(path)}: {exc}") from None


def _single_factors(boxes, inputs, outputs):
    try:
        arr = np.array([[b["probs"] for b in bs] for bs in boxes], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise Wrong(f"malformed factor boxes: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != inputs * outputs:
        raise Wrong(f"factor boxes have shape {arr.shape}")
    return arr


def _lemma2_check(box_path, shape, out_path, stdout):
    box = np.load(box_path)
    n, x, a = shape
    m = n // x
    printed = _lines(stdout)
    dec = _read_json(out_path)
    if _number(printed.get("m")) != m or dec.get("m") != m:
        raise Wrong(f"m printed {printed.get('m')}, written {dec.get('m')}, expected {m}")
    terms = dec.get("terms") or []
    if _number(printed.get("terms")) != len(terms):
        raise Wrong(f"printed {printed.get('terms')} terms, wrote {len(terms)}")
    weights = np.array([t["q"] for t in terms], dtype=float)
    factors = _single_factors([t["factors"] for t in terms], x, a)
    if factors.shape[1] != m:
        raise Wrong(f"terms have {factors.shape[1]} factors, expected {m}")
    rebuilt = refs.product_of_singles(weights, factors, m, x, a)
    dev = float(np.max(np.abs(rebuilt - refs.marginal_first(box, shape, m))))
    _close("reconstruction deviation", dev, 0.0, 1e-9)


def _definetti_check(box_path, shape, k, out_path, stdout):
    box = np.load(box_path)
    n, x, a = shape
    printed = _lines(stdout)
    bound, dist = _number(printed.get("bound")), _number(printed.get("distance"))
    mixture = _read_json(out_path)
    want_bound = refs.definetti_bound(n, x, a, k)
    _close("bound", bound, want_bound, 1e-12)
    if mixture.get("k") != k:
        raise Wrong(f"mixture k {mixture.get('k')}, expected {k}")
    _close("written bound", _number(mixture.get("bound")), want_bound, 1e-12)
    terms = mixture.get("terms") or []
    weights = np.array([t["p"] for t in terms], dtype=float)
    _close("mixture weight", float(weights.sum()), 1.0, 1e-9)
    comps = _single_factors([[t["box"]] * k for t in terms], x, a)
    approx = refs.product_of_singles(weights, comps, k, x, a)
    target = refs.marginal_first(box, shape, k)
    _close("distance", dist, refs.general_distance(target, approx, (k, x, a)), 1e-6)
    if dist > bound + 1e-9:
        raise Wrong(f"distance {dist} exceeds bound {bound}")


def _symmetric_box(shape, rng, tmp, tag, pools):
    n, x, a = shape
    if (x, a) not in pools:
        eqs = gen.ns_equalities(2, x, a)
        pools[(x, a)] = [gen.ns_vertex(eqs, rng) for _ in range(4)]
    box = gen.symmetric_ns_box(n, x, a, rng, pools[(x, a)])
    path = os.path.join(tmp, f"{tag}.json")
    gen.write_box(path, box, *shape)
    # The check reads the box back from here, so that the benchmark
    # process does not hold large boxes while the CLI runs.
    np.save(os.path.join(tmp, f"{tag}.npy"), box)
    return path, os.path.join(tmp, f"{tag}.npy"), os.path.join(tmp, f"{tag}-out.json")


def _lemma2_job(shape, rng, tmp, tag, pools):
    path, npy, out = _symmetric_box(shape, rng, tmp, tag, pools)
    return Job(str(shape), ["lemma2", path, "-o", out], partial(_lemma2_check, npy, shape, out))


def _definetti_job(rung, rng, tmp, tag, pools):
    shape, k = rung
    path, npy, out = _symmetric_box(shape, rng, tmp, tag, pools)
    argv = ["definetti", path, "--k", str(k), "-o", out]
    return Job(f"{shape} k={k}", argv, partial(_definetti_check, npy, shape, k, out))


# ------------------------------------------------------------- bounds

BOUNDS = [
    # (distinct labels c, draws k) in order of c**k; the urn has 2c + k balls.
    LadderSpec("urn-distance", "urn", "verb2_s", 5.0,
               [(8, 5), (10, 5), (12, 5), (8, 6), (10, 6), (8, 7), (12, 6), (12, 7), (12, 8)],
               frontier=2),
    # (local dimension d, k, parties n) in order of d**k; two-term specs.
    LadderSpec("quantum-definetti", "quantum", "verb1_s", 12.0,
               [(2, 2, 10), (2, 3, 10), (4, 2, 10), (2, 4, 10), (8, 2, 10), (4, 3, 10), (2, 7, 8),
                (4, 4, 8)],
               frontier=2),
]


def _urn_check(balls, k, stdout):
    _close("urn distance", _number(stdout.strip()), float(refs.urn_distance(balls, k)), 1e-9)


def _quantum_check(terms, n, d, k, stdout):
    printed = _lines(stdout)
    dist, bound = _number(printed.get("distance")), _number(printed.get("bound"))
    _close("bound", bound, 2.0 * k * (k - 1) / n, 1e-12)
    _close("trace distance", dist, refs.quantum_distance(terms, n, d, k), 1e-9)
    if dist > bound + 1e-9:
        raise Wrong(f"distance {dist} exceeds bound {bound}")


def _urn_job(rung, rng, tmp, tag, pools):
    c, k = rung
    balls = gen.random_urn(c, 2 * c + k, rng)
    # The verb takes the urn on its command line; the file records it.
    with open(os.path.join(tmp, f"{tag}.json"), "w") as fh:
        json.dump({"k": k, "labels": balls}, fh)
    argv = ["urn-distance", "--labels", ",".join(map(str, balls)), "--k", str(k)]
    return Job(f"c={c} k={k} n={len(balls)}", argv, partial(_urn_check, balls, k))


def _quantum_job(rung, rng, tmp, tag, pools):
    d, k, n = rung
    terms = gen.random_quantum_spec(n, d, 2, rng)
    path = os.path.join(tmp, f"{tag}.json")
    gen.write_quantum_spec(path, n, d, terms)
    argv = ["quantum-definetti", path, "--k", str(k)]
    return Job(f"d={d} k={k} n={n}", argv, partial(_quantum_check, terms, n, d, k))


JOB_MAKERS = {
    "individual": _distance_job("individual"),
    "adaptive": _distance_job("adaptive"),
    "general": _distance_job("general"),
    "lemma2": _lemma2_job,
    "definetti": _definetti_job,
    "urn": _urn_job,
    "quantum": _quantum_job,
}

WORKLOADS = {"lp": LP, "definetti": DEFINETTI, "bounds": BOUNDS}


def build(specs, rng, tmp):
    """Generate and write the inputs of every job; returns the ladders."""
    pools = {}  # vertex pools shared by the jobs of one pass
    ladders = []
    for spec in specs:
        ladder = Ladder(spec)
        for i, rung in enumerate(spec.rungs):
            make = JOB_MAKERS[spec.verb]
            jobs = [make(rung, rng, tmp, f"{spec.name}-{i}-{r}", pools) for r in range(spec.reps)]
            ladder.rungs.append(jobs)
        ladders.append(ladder)
    return ladders
