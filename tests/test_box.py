"""Box representation, validation and algebra.

Claims covered:
    - validation reports exact normalization/negativity/signalling violations
    - the per-party no-signalling check accepts/rejects the canonical examples
      and implies the all-subsets condition (brute force, small shapes)
    - marginal/permute/symmetrize/product/mix behave as stated and preserve
      no-signalling
    - permute is a group action and symmetrize a projection onto symmetric boxes
    - sequential conditionals chain back to the joint distribution
"""

import itertools

import numpy as np
import pytest

from conftest import random_ns_mixture, random_single_party_box, random_valid_box
from nsbox import (
    Box,
    Permutation,
    ShapeError,
    SignallingError,
    all_deterministic_boxes,
    deterministic_box,
    is_no_signalling,
    is_symmetric,
    marginal,
    max_entry_deviation,
    mix,
    permute,
    pr_box,
    product,
    q_box,
    sequential_condition,
    signalling_example,
    symmetrize,
    symmetry_violation,
    uniform_box,
    validate,
)


class TestValidate:
    def test_pr_box_all_zero(self):
        report = validate(pr_box())
        assert report.normalization_violation == 0.0
        assert report.negativity_violation == 0.0
        assert report.signalling_violation == 0.0
        assert report.is_valid()

    def test_empty_distribution(self):
        report = validate(Box(1, 1, 2, [0.0, 0.0]))
        assert report.normalization_violation == 1.0
        assert not report.is_valid()

    def test_forced_arithmetic(self):
        report = validate(Box(1, 1, 2, [1.0 + 1e-3, 0.0]))
        assert report.normalization_violation == pytest.approx(1e-3, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Box(2, 2, 2, [0.25] * 15)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                Box(1, 2, 2, [0.5, 0.5, bad, 0.5])

    def test_violations_propagate_nan(self):
        # Box refuses nan, so plant one behind the constructor's back to
        # reach the reductions: a nan must never read as no violation.
        box = uniform_box(2, 2, 2)
        probs = box.probs.copy()
        probs[5] = np.nan
        object.__setattr__(box, "probs", probs)
        assert np.isnan(validate(box).signalling_violation)
        ok, violation = is_no_signalling(box)
        assert not ok and np.isnan(violation)
        with pytest.raises(ValueError, match="finite"):  # permute builds a Box
            symmetry_violation(box)


class TestNoSignalling:
    def test_pr_box(self):
        ok, violation = is_no_signalling(pr_box())
        assert ok and violation == 0.0

    def test_signalling_example(self):
        ok, violation = is_no_signalling(signalling_example())
        assert not ok
        assert violation == 1.0

    def test_products_are_no_signalling(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            factors = [random_single_party_box(2, 3, rng) for _ in range(3)]
            ok, violation = is_no_signalling(product(factors))
            assert ok, violation

    def test_subset_conditions_follow_from_per_party(self):
        # On random NS boxes, every subset's output marginal is independent
        # of the complement's inputs, not just the per-party ones checked
        # by is_no_signalling.
        rng = np.random.default_rng(2)
        for parties, inputs, outputs in [(2, 2, 2), (3, 2, 2)]:
            box = random_ns_mixture(parties, inputs, outputs, rng)
            ok, violation = is_no_signalling(box)
            assert ok, violation
            t = box.tensor
            for r in range(1, parties):
                for subset in itertools.combinations(range(parties), r):
                    others = [p for p in range(parties) if p not in subset]
                    tables = {}
                    for xo in itertools.product(range(inputs), repeat=len(others)):
                        idx = [slice(None)] * (2 * parties)
                        for p, xv in zip(others, xo):
                            idx[p] = xv
                        sub = t[tuple(idx)].sum(
                            axis=tuple(len(subset) + p for p in others)
                        )
                        tables[xo] = sub
                    ref = next(iter(tables.values()))
                    for sub in tables.values():
                        assert np.max(np.abs(sub - ref)) <= 1e-9


class TestMarginal:
    def test_pr_marginal_uniform(self):
        m = marginal(pr_box(), [0])
        assert np.allclose(m.probs, 0.5)

    def test_product_factor(self):
        rng = np.random.default_rng(3)
        r = random_single_party_box(2, 2, rng)
        s = random_single_party_box(2, 2, rng)
        m = marginal(product([r, s]), [1])
        assert max_entry_deviation(m, s) < 1e-12

    def test_signalling_input_rejected(self):
        with pytest.raises(SignallingError) as err:
            marginal(signalling_example(), [0])
        assert err.value.violation == 1.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(4)
        box = random_ns_mixture(3, 2, 2, rng)
        subset = [2, 0]
        m = marginal(box, subset)
        # Direct re-summation from the definition, complement inputs at 0.
        for xs in itertools.product(range(2), repeat=2):
            for outs in itertools.product(range(2), repeat=2):
                total = 0.0
                for a1 in range(2):
                    full_x = [xs[1], 0, xs[0]]
                    full_a = [outs[1], a1, outs[0]]
                    total += box.entry(full_x, full_a)
                assert m.entry(xs, outs) == pytest.approx(total, abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(5)
        box = random_ns_mixture(3, 2, 2, rng)
        inner = marginal(box, [2, 0, 1])
        outer = marginal(inner, [1, 0])
        direct = marginal(box, [0, 2])
        assert max_entry_deviation(outer, direct) < 1e-9


class TestPermute:
    def test_pr_symmetric_under_swap(self):
        swapped = permute(pr_box(), Permutation((1, 0)))
        assert np.array_equal(swapped.probs, pr_box().probs)

    def test_swap_of_product(self):
        rng = np.random.default_rng(6)
        r = random_single_party_box(2, 3, rng)
        s = random_single_party_box(2, 3, rng)
        swapped = permute(product([r, s]), Permutation((1, 0)))
        assert np.array_equal(swapped.probs, product([s, r]).probs)

    def test_inverse_roundtrip_bit_exact(self):
        rng = np.random.default_rng(7)
        box = random_valid_box(3, 2, 3, rng)
        perm = Permutation((2, 0, 1))
        back = permute(permute(box, perm), perm.inverse())
        assert np.array_equal(back.probs, box.probs)

    def test_entry_formula(self):
        # Direct check of result[a|x] = original[a o pinv | x o pinv].
        rng = np.random.default_rng(8)
        box = random_valid_box(3, 2, 2, rng)
        perm = Permutation((1, 2, 0))
        inv = perm.inverse()
        out = permute(box, perm)
        for xs in itertools.product(range(2), repeat=3):
            for outs in itertools.product(range(2), repeat=3):
                expected = box.entry(
                    [xs[inv(p)] for p in range(3)], [outs[inv(p)] for p in range(3)]
                )
                assert out.entry(xs, outs) == expected

    def test_group_action(self):
        # The relabelling formula composes contravariantly: permuting by
        # sigma and then by pi equals a single permute by sigma o pi.
        rng = np.random.default_rng(9)
        box = random_valid_box(3, 2, 2, rng)
        # A non-commuting pair: a 3-cycle and a transposition.
        sigma = Permutation((1, 2, 0))
        pi = Permutation((1, 0, 2))
        assert pi.compose(sigma).mapping != sigma.compose(pi).mapping
        chained = permute(permute(box, sigma), pi)
        assert np.array_equal(chained.probs, permute(box, sigma.compose(pi)).probs)
        chained = permute(permute(box, pi), sigma)
        assert np.array_equal(chained.probs, permute(box, pi.compose(sigma)).probs)


class TestSymmetrize:
    def test_fixes_pr_box(self):
        assert np.array_equal(symmetrize(pr_box()).probs, pr_box().probs)

    def test_two_party_average(self):
        rng = np.random.default_rng(10)
        r = random_single_party_box(2, 2, rng)
        s = random_single_party_box(2, 2, rng)
        rs = product([r, s])
        expected = 0.5 * (rs.probs + product([s, r]).probs)
        assert np.max(np.abs(symmetrize(rs).probs - expected)) < 1e-15

    def test_matches_full_orbit_average(self):
        rng = np.random.default_rng(11)
        box = random_valid_box(3, 2, 2, rng)
        acc = np.zeros_like(box.probs)
        for mapping in itertools.permutations(range(3)):
            acc += permute(box, Permutation(mapping)).probs
        assert np.max(np.abs(symmetrize(box).probs - acc / 6)) < 1e-14

    def test_idempotent_and_symmetric(self):
        rng = np.random.default_rng(12)
        box = random_valid_box(4, 2, 2, rng)
        sym = symmetrize(box)
        assert is_symmetric(sym, 1e-12)
        again = symmetrize(sym)
        assert np.max(np.abs(again.probs - sym.probs)) < 1e-12

    def test_signalling_example_is_symmetric(self):
        # Each party outputs the other's input, so the simultaneous swap
        # maps [a1=x2][a2=x1] to [a2=x1][a1=x2]: the same box.  Symmetry
        # and no-signalling are independent properties.
        box = signalling_example()
        swapped = permute(box, Permutation((1, 0)))
        assert np.array_equal(swapped.probs, box.probs)
        assert is_symmetric(box)
        assert not is_no_signalling(box)[0]

    def test_asymmetric_box_detected(self):
        r = deterministic_box([0, 0], 2)
        s = deterministic_box([1, 1], 2)
        assert not is_symmetric(product([r, s]))


class TestProductMix:
    def test_uniform_product(self):
        u = uniform_box(1, 2, 2)
        two = product([u, u])
        assert np.allclose(two.probs, 0.25)

    def test_mix_single(self):
        box = pr_box()
        assert np.array_equal(mix([(1.0, box)]).probs, box.probs)

    def test_mix_of_all_deterministic_is_uniform(self):
        boxes = all_deterministic_boxes(2, 2)
        assert len(boxes) == 4
        mixed = mix([(0.25, b) for b in boxes])
        assert np.allclose(mixed.probs, uniform_box(1, 2, 2).probs)

    def test_mix_rejects_bad_weights(self):
        box = pr_box()
        with pytest.raises(ValueError):
            mix([(0.7, box), (0.7, box)])
        with pytest.raises(ValueError):
            mix([(-0.2, box), (1.2, box)])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mix([(0.5, pr_box()), (0.5, uniform_box(1, 2, 2))])
        with pytest.raises(ShapeError):
            product([pr_box(), uniform_box(1, 3, 2)])

    def test_closure_under_ns(self):
        rng = np.random.default_rng(13)
        a = random_ns_mixture(2, 2, 2, rng)
        b = random_ns_mixture(2, 2, 2, rng)
        for box in [
            mix([(0.3, a), (0.7, b)]),
            product([a, b]),
            symmetrize(a),
            permute(a, Permutation((1, 0))),
            marginal(product([a, b]), [1, 2]),
        ]:
            ok, violation = is_no_signalling(box)
            assert ok, violation


class TestDeterministicBox:
    def test_identity_table(self):
        box = deterministic_box([0, 1], 2)
        assert box.entry((0,), (0,)) == 1.0
        assert box.entry((1,), (1,)) == 1.0
        assert box.entry((0,), (1,)) == 0.0

    def test_constant_table(self):
        box = deterministic_box([0, 0, 0], 2)
        assert np.array_equal(box.probs.reshape(3, 2)[:, 0], np.ones(3))

    def test_count(self):
        assert len(all_deterministic_boxes(3, 2)) == 8

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            deterministic_box([0, 2], 2)


class TestExampleBoxes:
    def test_pr_box_entries(self):
        p = pr_box()
        assert p.entry((0, 0), (0, 0)) == 0.5
        assert p.entry((1, 1), (0, 1)) == 0.5
        assert p.entry((1, 1), (0, 0)) == 0.0
        for x in itertools.product(range(2), repeat=2):
            assert sum(p.entry(x, a) for a in itertools.product(range(2), repeat=2)) == 1.0
        # Each party's marginal is uniform for every input.
        for party in range(2):
            m = marginal(p, [party])
            assert np.allclose(m.probs, 0.5)

    def test_q_box_entries(self):
        q = q_box()
        for x in itertools.product(range(2), repeat=2):
            assert q.entry(x, (0, 1)) == 0.5
            assert q.entry(x, (1, 1)) == 0.5
            assert q.entry(x, (0, 0)) == 0.0
        ok, violation = is_no_signalling(q)
        assert ok and violation == 0.0

    def test_symmetrize_party_cap(self):
        with pytest.raises(Exception) as err:
            symmetrize(uniform_box(9, 2, 2))
        assert "8" in str(err.value)


class TestSequentialCondition:
    def test_pr_points_to_zero(self):
        # Measuring party 0 with input 1, then party 1 with input a1 forces
        # a1 + a2 = a1 mod 2, i.e. the second output is always 0.
        for a1 in range(2):
            dist = sequential_condition(pr_box(), [(0, 1, a1)], 1, a1)
            assert np.array_equal(dist, [1.0, 0.0])

    def test_pr_unmeasured_uniform(self):
        dist = sequential_condition(pr_box(), [], 0, 0)
        assert np.array_equal(dist, [0.5, 0.5])

    def test_product_box_ignores_transcript(self):
        rng = np.random.default_rng(14)
        r = random_single_party_box(2, 2, rng)
        s = random_single_party_box(2, 2, rng)
        rs = product([r, s])
        for x1 in range(2):
            for a1 in range(2):
                for x2 in range(2):
                    dist = sequential_condition(rs, [(0, x1, a1)], 1, x2)
                    assert np.allclose(dist, s.probs.reshape(2, 2)[x2])

    def test_zero_probability_transcript_uniform(self):
        box = product([deterministic_box([0, 0], 2)] * 2)
        dist = sequential_condition(box, [(0, 0, 1)], 1, 0)
        assert np.array_equal(dist, [0.5, 0.5])

    def test_chain_reproduces_joint(self):
        rng = np.random.default_rng(15)
        for parties in (2, 3):
            # Mix toward uniform so every transcript has positive probability.
            raw = random_ns_mixture(parties, 2, 2, rng)
            box = mix([(0.7, raw), (0.3, uniform_box(parties, 2, 2))])
            for order in itertools.permutations(range(parties)):
                for xs in itertools.product(range(2), repeat=parties):
                    for outs in itertools.product(range(2), repeat=parties):
                        prob = 1.0
                        transcript = []
                        for party in order:
                            dist = sequential_condition(box, transcript, party, xs[party])
                            prob *= dist[outs[party]]
                            transcript.append((party, xs[party], outs[party]))
                        assert prob == pytest.approx(box.entry(xs, outs), abs=1e-9)
