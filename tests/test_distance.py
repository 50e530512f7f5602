"""Individual, adaptive and general distances.

Claims covered:
    - the polytope H-description accepts the nonlocal box and rejects the
      signalling example
    - individual/adaptive/general reproduce the hand-computable separation
      values (1/2, 1, 1) on the canonical pair
    - hierarchy individual <= adaptive <= general on random NS pairs
    - metric axioms (symmetry, triangle, identity of indiscernibles)
    - for a single input, all three collapse to the classical variational
      distance
    - the general distance matches a scipy/HiGHS base-norm LP, and its
      witness is an effect (HiGHS max and min over the NS polytope lie in
      [0, 1]) that attains the value; it is also feasible on random NS boxes
    - the adaptive and general distances refuse inputs that are not
      normalized, nonnegative no-signalling boxes
    - the backward induction for the adaptive distance matches brute-force
      enumeration of every adaptive strategy
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_ns_mixture
from nsbox import (
    AdaptiveStrategy,
    Box,
    ResourceLimitError,
    SignallingError,
    adaptive_distance,
    adaptive_strategy_count,
    deterministic_box,
    general_distance,
    individual_distance,
    is_no_signalling,
    mix,
    ns_constraints,
    polytope_extremum,
    pr_box,
    product,
    q_box,
    random_ns_box,
    random_ns_vertex,
    signalling_example,
    transcript_distribution,
    uniform_box,
    validate,
)
from nsbox.distance import ADAPTIVE_WORK_CAP, adaptive_work

TOL = 1e-6


def brute_force_adaptive(p, q):
    """Max transcript total variation over every deterministic adaptive strategy."""
    best = 0.0
    for order in itertools.permutations(range(p.parties)):
        step_choices = [
            itertools.product(range(p.inputs), repeat=p.outputs**t) for t in range(p.parties)
        ]
        for decisions in itertools.product(*step_choices):
            strategy = AdaptiveStrategy(order, decisions)
            dp = transcript_distribution(p, strategy)
            dq = transcript_distribution(q, strategy)
            best = max(best, 0.5 * float(np.abs(dp - dq).sum()))
    return best


def effect_range_ok(effect, box, tol=1e-8):
    v = effect.value(box)
    return -tol <= v <= 1.0 + tol


def highs_base_norm(p, q):
    """Least t with P - Q = S1 - S2, S1 and S2 in the NS cone with mass t per input."""
    poly = ns_constraints(p.parties, p.inputs, p.outputs)
    a_eq = np.hstack([poly.a_eq, -poly.b_eq[:, None]])
    cost = np.zeros(poly.dim + 1)
    cost[-1] = 1.0
    lower = np.append(np.maximum(p.probs - q.probs, 0.0), 0.0)
    res = linprog(
        cost, A_eq=a_eq, b_eq=np.zeros(len(a_eq)), bounds=[(lo, None) for lo in lower],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def highs_effect_range(coeffs, parties, inputs, outputs):
    """Min and max of <coeffs, R> over the NS polytope, by HiGHS."""
    poly = ns_constraints(parties, inputs, outputs)
    lo = linprog(coeffs, A_eq=poly.a_eq, b_eq=poly.b_eq, method="highs")
    hi = linprog(-coeffs, A_eq=poly.a_eq, b_eq=poly.b_eq, method="highs")
    assert lo.status == 0 and hi.status == 0
    return lo.fun, -hi.fun


def doubled_pr_box():
    """A no-signalling array of mass 2 per input: not a box."""
    return Box(2, 2, 2, 2.0 * pr_box().probs)


def signed_box():
    """A normalized no-signalling array with entries of -0.25: not a box."""
    return Box(2, 2, 2, 1.5 * q_box().probs - 0.5 * pr_box().probs)


class TestPolytope:
    def test_pr_box_satisfies_constraints(self):
        poly = ns_constraints(2, 2, 2)
        residual = np.max(np.abs(poly.a_eq @ pr_box().probs - poly.b_eq))
        assert residual <= 1e-12

    def test_signalling_example_violates(self):
        poly = ns_constraints(2, 2, 2)
        residual = np.max(np.abs(poly.a_eq @ signalling_example().probs - poly.b_eq))
        assert residual >= 1.0

    def test_deterministic_products_satisfy_constraints_exactly(self):
        from nsbox import all_deterministic_boxes

        poly = ns_constraints(2, 2, 2)
        for d1 in all_deterministic_boxes(2, 2):
            for d2 in all_deterministic_boxes(2, 2):
                residual = np.max(np.abs(poly.a_eq @ product([d1, d2]).probs - poly.b_eq))
                assert residual == 0.0

    def test_single_party_vertices_are_deterministic(self):
        # For one party the polytope is a product of simplices per input,
        # whose vertices are exactly the deterministic boxes.
        poly = ns_constraints(1, 2, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            _, vertex = polytope_extremum(rng.standard_normal(poly.dim), poly)
            assert np.all((vertex.probs < 1e-9) | (np.abs(vertex.probs - 1) < 1e-9))

    def test_span_rows_are_independent_ns_boxes(self):
        # The general distance's LP needs rows that span the NS boxes: each
        # is a normalized NS box, they are independent, and there are as
        # many as the dimension of the boxes' linear span.
        for parties, inputs, outputs in [(1, 3, 2), (2, 2, 2), (3, 2, 2), (2, 3, 3), (2, 2, 3)]:
            poly = ns_constraints(parties, inputs, outputs)
            assert poly.span.shape == ((1 + inputs * (outputs - 1)) ** parties, poly.dim)
            assert np.max(np.abs(poly.a_eq @ poly.span.T - poly.b_eq[:, None])) == 0.0
            assert np.linalg.matrix_rank(poly.span) == len(poly.span)
            assert np.linalg.matrix_rank(poly.a_eq) + len(poly.span) == poly.dim + 1

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            ns_constraints(8, 2, 2)

    def test_random_vertices_are_ns_boxes(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            vertex = random_ns_vertex(2, 2, 2, rng)
            assert validate(vertex, 1e-8).is_valid(1e-8)
            box = random_ns_box(2, 2, 2, rng)
            ok, violation = is_no_signalling(box, 1e-8)
            assert ok, violation


class TestIndividual:
    def test_separation_pair(self):
        # Oracle: enumerate the four joint inputs; each gives TV 1/2.
        p, q = pr_box(), q_box()
        best = 0.0
        for x1 in range(2):
            for x2 in range(2):
                tv = 0.5 * sum(
                    abs(p.entry((x1, x2), a) - q.entry((x1, x2), a))
                    for a in itertools.product(range(2), repeat=2)
                )
                assert tv == pytest.approx(0.5)
                best = max(best, tv)
        assert individual_distance(p, q) == pytest.approx(best, abs=1e-12)

    def test_identity(self):
        assert individual_distance(pr_box(), pr_box()) == 0.0

    def test_disjoint_deterministic(self):
        d0 = deterministic_box([0, 0], 2)
        d1 = deterministic_box([1, 1], 2)
        assert individual_distance(d0, d1) == 1.0


class TestAdaptive:
    def test_strategy_count(self):
        assert adaptive_strategy_count(2, 2, 2) == 16
        assert adaptive_strategy_count(1, 3, 2) == 3

    def test_known_strategy_separates_perfectly(self):
        # Measure party 0 with input 1, then party 1 with input a1: the
        # nonlocal box forces a2 = 0 while the product box forces a2 = 1.
        strategy = AdaptiveStrategy((0, 1), ((1,), (0, 1)))
        dp = transcript_distribution(pr_box(), strategy)
        dq = transcript_distribution(q_box(), strategy)
        assert np.allclose(dp, [0.5, 0.0, 0.5, 0.0])
        assert np.allclose(dq, [0.0, 0.5, 0.0, 0.5])
        assert 0.5 * np.abs(dp - dq).sum() == pytest.approx(1.0)

    def test_separation_pair(self):
        assert adaptive_distance(pr_box(), q_box()) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        assert adaptive_distance(pr_box(), pr_box()) == 0.0

    def test_requires_no_signalling(self):
        with pytest.raises(SignallingError):
            adaptive_distance(signalling_example(), q_box())

    def test_rejects_non_boxes(self):
        with pytest.raises(ValueError, match=r"normalization violation 1\.000e\+00"):
            adaptive_distance(doubled_pr_box(), q_box())
        with pytest.raises(ValueError, match=r"negativity violation 2\.500e-01"):
            adaptive_distance(q_box(), signed_box())

    def test_resource_cap(self):
        # The cap is on the entries the backward induction reads; (4,3,3),
        # with 24 * 3**40 strategies, reads fewer than 10**5.
        assert adaptive_distance(uniform_box(4, 3, 3), uniform_box(4, 3, 3)) == 0.0
        assert adaptive_work(9, 2, 2) > ADAPTIVE_WORK_CAP
        with pytest.raises(ResourceLimitError):
            adaptive_distance(uniform_box(9, 2, 2), uniform_box(9, 2, 2))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for shape in ((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)):
            for _ in range(4):
                p = random_ns_mixture(*shape, rng)
                q = random_ns_mixture(*shape, rng)
                assert adaptive_distance(p, q) == pytest.approx(
                    brute_force_adaptive(p, q), abs=1e-12
                ), shape

    def test_dominates_individual(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_ns_mixture(2, 2, 2, rng)
            q = random_ns_mixture(2, 2, 2, rng)
            assert individual_distance(p, q) <= adaptive_distance(p, q) + 1e-12


class TestGeneral:
    def test_identity_with_feasible_witness(self):
        value, witness = general_distance(pr_box(), pr_box())
        assert value == pytest.approx(0.0, abs=1e-9)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert effect_range_ok(witness, random_ns_box(2, 2, 2, rng))

    def test_separation_pair(self):
        value, witness = general_distance(pr_box(), q_box())
        assert value == pytest.approx(1.0, abs=TOL)
        assert witness.value(pr_box()) - witness.value(q_box()) == pytest.approx(value, abs=1e-8)

    def test_hierarchy_symmetry_triangle(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            p = random_ns_mixture(2, 2, 2, rng)
            q = random_ns_mixture(2, 2, 2, rng)
            r = random_ns_mixture(2, 2, 2, rng)
            di, da = individual_distance(p, q), adaptive_distance(p, q)
            dg, _ = general_distance(p, q)
            assert di <= da + 1e-12
            assert da <= dg + TOL
            dg_rev, _ = general_distance(q, p)
            assert dg == pytest.approx(dg_rev, abs=1e-9)
            for dist in (
                individual_distance,
                adaptive_distance,
                lambda a, b: general_distance(a, b)[0],
            ):
                assert dist(p, r) <= dist(p, q) + dist(q, r) + TOL

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        p = random_ns_mixture(2, 2, 2, rng)
        q = mix([(0.9, p), (0.1, uniform_box(2, 2, 2))])
        gap = float(np.max(np.abs(p.probs - q.probs)))
        if gap > 1e-6:
            dg, _ = general_distance(p, q)
            assert dg > 1e-8
            # Single-entry indicators are feasible effects and complements
            # flip the sign, so the distance dominates the max entry gap.
            assert dg >= gap - 1e-8

    def test_classical_reduction(self):
        # One input: boxes are plain distributions over joint outputs and
        # every distance equals the classical variational distance.
        rng = np.random.default_rng(6)
        for outputs in (2, 3):
            p = Box(2, 1, outputs, rng.dirichlet(np.ones(outputs**2)))
            q = Box(2, 1, outputs, rng.dirichlet(np.ones(outputs**2)))
            tv = 0.5 * float(np.abs(p.probs - q.probs).sum())
            assert individual_distance(p, q) == pytest.approx(tv, abs=1e-12)
            assert adaptive_distance(p, q) == pytest.approx(tv, abs=1e-12)
            dg, _ = general_distance(p, q)
            assert dg == pytest.approx(tv, abs=1e-9)

    def test_witness_feasible_on_random_boxes(self):
        rng = np.random.default_rng(7)
        p = random_ns_mixture(2, 2, 2, rng)
        q = random_ns_mixture(2, 2, 2, rng)
        value, witness = general_distance(p, q)
        assert witness.value(p) - witness.value(q) == pytest.approx(value, abs=1e-8)
        for _ in range(200):
            assert effect_range_ok(witness, random_ns_box(2, 2, 2, rng))

    def test_certificate_against_highs(self):
        # The value is checked against an independent LP solver, and the
        # witness over the whole polytope rather than at sampled boxes.
        rng = np.random.default_rng(8)
        for shape in ((2, 2, 2), (3, 2, 2), (2, 3, 3)):
            for _ in range(3):
                p = random_ns_mixture(*shape, rng)
                q = random_ns_mixture(*shape, rng)
                value, witness = general_distance(p, q)
                assert value == pytest.approx(highs_base_norm(p, q), abs=1e-9), shape
                gap = witness.value(p) - witness.value(q)
                assert gap == pytest.approx(value, abs=1e-9), shape
                lo, hi = highs_effect_range(witness.coeffs, *shape)
                assert -1e-9 <= lo and hi <= 1.0 + 1e-9, (shape, lo, hi)

    def test_requires_no_signalling(self):
        with pytest.raises(SignallingError):
            general_distance(signalling_example(), q_box())

    def test_rejects_non_boxes(self):
        # A mass-2 PR box is no-signalling but not normalized; the base
        # norm of its difference to the Q box would read 2.
        with pytest.raises(ValueError, match=r"normalization violation 1\.000e\+00"):
            general_distance(doubled_pr_box(), q_box())
        with pytest.raises(ValueError, match="second box"):
            general_distance(q_box(), doubled_pr_box())
        with pytest.raises(ValueError, match=r"negativity violation 2\.500e-01"):
            general_distance(signed_box(), q_box())


class TestShapeChecks:
    def test_mismatch_rejected(self):
        small = uniform_box(1, 2, 2)
        for dist in (individual_distance, adaptive_distance):
            with pytest.raises(Exception):
                dist(pr_box(), small)


def test_product_box_transcripts_match_sequential_sampling():
    # For a product of single-party boxes the transcript probability
    # factorizes; cross-check transcript_distribution explicitly.
    rng = np.random.default_rng(9)
    r = Box(1, 2, 2, rng.dirichlet([1, 1]).tolist() + rng.dirichlet([1, 1]).tolist())
    s = Box(1, 2, 2, rng.dirichlet([1, 1]).tolist() + rng.dirichlet([1, 1]).tolist())
    rs = product([r, s])
    strategy = AdaptiveStrategy((1, 0), ((1,), (0, 1)))
    dist = transcript_distribution(rs, strategy)
    rt, st = r.probs.reshape(2, 2), s.probs.reshape(2, 2)
    expected = []
    for b1 in range(2):  # party 1 output, measured first with input 1
        for b2 in range(2):  # party 0 output, measured with input b1
            expected.append(st[1, b1] * rt[b1, b2])
    assert np.allclose(dist, expected)
