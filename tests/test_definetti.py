"""Separable decomposition and de Finetti mixtures.

The central claim is an exact identity: reconstructing the decomposition
of a symmetric no-signalling box returns its m-party marginal to float
precision, not approximately.  The mixture bound min(2kE/m, k(k-1)/m) is
then certified against the LP distance on randomized suites.
"""

import numpy as np
import pytest

from conftest import random_single_party_box, random_symmetric_ns_box
from nsbox import (
    AsymmetryError,
    Box,
    DeFinettiMixture,
    SeparableDecomposition,
    SignallingError,
    boxes_equal,
    definetti_approximation,
    deterministic_box,
    general_distance,
    is_no_signalling,
    is_symmetric,
    marginal,
    max_entry_deviation,
    mixture_to_box,
    pr_box,
    product,
    reconstruct,
    separable_decompose,
    signalling_example,
    symmetrize,
    uniform_box,
    validate,
    averaged_mixture,
)


class TestDecompose:
    def test_iid_product_case(self):
        # P = R^{x4}: the advance-measurement weights factorize as
        # q_b = prod_j R[b_j | y_j] and reconstruction gives R^{x2}.
        rng = np.random.default_rng(30)
        r = random_single_party_box(2, 2, rng)
        p = product([r] * 4)
        dec = separable_decompose(p)
        assert dec.parties == 2
        assert dec.baseline_inputs == (0, 1, 0, 1)
        rt = r.probs.reshape(2, 2)
        for q, factors in dec.terms:
            b = [int(np.argmax(f.probs.reshape(2, 2)[x])) for f in factors for x in range(2)]
            expected = np.prod([rt[dec.baseline_inputs[j], b[j]] for j in range(4)])
            assert q == pytest.approx(expected, abs=1e-15)
        assert max_entry_deviation(reconstruct(dec), product([r, r])) < 1e-12

    def test_symmetrized_pr_single_block(self):
        p = symmetrize(pr_box())
        dec = separable_decompose(p)
        assert dec.parties == 1
        assert max_entry_deviation(reconstruct(dec), marginal(p, [0])) < 1e-12

    def test_support_bound(self):
        rng = np.random.default_rng(31)
        p = random_symmetric_ns_box(4, 2, 2, rng)
        dec = separable_decompose(p)
        assert len(dec.terms) <= 2**4
        assert all(len(factors) == dec.parties for _, factors in dec.terms)
        assert dec.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_factors_are_deterministic(self):
        rng = np.random.default_rng(32)
        dec = separable_decompose(random_symmetric_ns_box(4, 2, 2, rng))
        for _, factors in dec.terms:
            for f in factors:
                assert np.all((f.probs == 0.0) | (f.probs == 1.0))

    def test_rejects_asymmetric(self):
        p = product([deterministic_box([0, 0], 2), deterministic_box([1, 1], 2)])
        with pytest.raises(AsymmetryError):
            separable_decompose(p)

    def test_rejects_signalling(self):
        with pytest.raises(SignallingError):
            separable_decompose(signalling_example())

    def test_rejects_non_boxes(self):
        # A mass-2 symmetric box would give a mixture of weight 2 with a
        # "certified" bound.
        doubled = Box(2, 2, 2, 2.0 * symmetrize(pr_box()).probs)
        with pytest.raises(ValueError, match=r"normalization violation 1\.000e\+00"):
            separable_decompose(doubled)
        with pytest.raises(ValueError, match=r"normalization violation 1\.000e\+00"):
            definetti_approximation(Box(4, 2, 2, 2.0 * uniform_box(4, 2, 2).probs), 2)

    def test_needs_enough_parties(self):
        with pytest.raises(ValueError):
            separable_decompose(uniform_box(2, 3, 2))

    def test_floor_case_uses_leading_block(self):
        # n=3, |X|=2 -> m=1: decomposition matches that of the 2-party marginal.
        rng = np.random.default_rng(33)
        p = random_symmetric_ns_box(3, 2, 2, rng)
        dec = separable_decompose(p)
        assert dec.parties == 1
        assert max_entry_deviation(reconstruct(dec), marginal(p, [0])) < 1e-9

    def test_reconstruction_identity_randomized(self):
        # The identity holds for every symmetric NS box; sweep alphabets.
        rng = np.random.default_rng(34)
        cases = [(2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 2, 2), (6, 2, 2),
                 (2, 2, 3), (4, 2, 3), (3, 3, 2), (6, 3, 2), (4, 3, 3)]
        for n, inputs, outputs in cases:
            p = random_symmetric_ns_box(n, inputs, outputs, rng)
            dec = separable_decompose(p)
            m = dec.parties
            target = marginal(p, list(range(m)))
            assert max_entry_deviation(reconstruct(dec), target) <= 1e-9, (n, inputs, outputs)


class TestReconstruct:
    def test_single_term(self):
        rng = np.random.default_rng(35)
        r = random_single_party_box(2, 2, rng)
        dec = SeparableDecomposition(1, 2, 2, ((1.0, (r,)),), (0, 1))
        assert boxes_equal(reconstruct(dec), r)

    def test_two_term_uniform_mixture(self):
        d0 = deterministic_box([0, 0], 2)
        d1 = deterministic_box([1, 1], 2)
        dec = SeparableDecomposition(1, 2, 2, ((0.5, (d0,)), (0.5, (d1,))), (0, 1))
        assert boxes_equal(reconstruct(dec), uniform_box(1, 2, 2))


class TestAveragedMixture:
    def test_identical_factors_collapse(self):
        r = deterministic_box([0, 1], 2)
        dec = SeparableDecomposition(3, 2, 2, ((1.0, (r, r, r)),), tuple([0, 1] * 3))
        mixture = averaged_mixture(dec, 2)
        assert len(mixture.terms) == 1
        weight, component = mixture.terms[0]
        assert weight == pytest.approx(1.0)
        assert boxes_equal(component, r)
        assert boxes_equal(mixture_to_box(mixture), product([r, r]))

    def test_one_component_per_output_count_table(self):
        # A component is fixed by how many factors answer a on input x.
        # Distinct factor multisets can share that table: {00, 11} and
        # {01, 10} both average to the uniform box, and merge.
        d = {t: deterministic_box(t, 2) for t in ((0, 0), (1, 1), (0, 1), (1, 0))}
        dec = SeparableDecomposition(
            2, 2, 2, ((0.5, (d[0, 0], d[1, 1])), (0.5, (d[0, 1], d[1, 0]))), (0, 1, 0, 1)
        )
        mixture = averaged_mixture(dec, 2)
        assert len(mixture.terms) == 1
        assert mixture.terms[0][0] == 1.0
        assert boxes_equal(mixture.terms[0][1], uniform_box(1, 2, 2), 0.0)
        rng = np.random.default_rng(40)
        for n, inputs, outputs in ((4, 2, 2), (6, 2, 2), (6, 3, 2), (4, 2, 3)):
            dec = separable_decompose(random_symmetric_ns_box(n, inputs, outputs, rng))
            tables = set()
            for _, factors in dec.terms:
                answers = [np.argmax(f.probs.reshape(inputs, outputs), axis=1) for f in factors]
                tables.add(tuple(
                    sum(int(a[x] == b) for a in answers)
                    for x in range(inputs)
                    for b in range(outputs)
                ))
            mixture = averaged_mixture(dec, 1)
            assert len(mixture.terms) == len(tables), (n, inputs, outputs)
            assert mixture.total_weight == pytest.approx(dec.total_weight, abs=1e-12)

    def test_bound_arithmetic(self):
        r = deterministic_box([0, 1], 2)
        dec = SeparableDecomposition(4, 2, 2, ((1.0, (r,) * 4),), tuple([0, 1] * 4))
        assert averaged_mixture(dec, 2).bound == pytest.approx(0.5)  # min(2*2*4/4, 2*1/4)

    def test_k_one_matches_single_party_marginal(self):
        rng = np.random.default_rng(36)
        p = random_symmetric_ns_box(4, 2, 2, rng)
        mixture = definetti_approximation(p, 1)
        assert max_entry_deviation(mixture_to_box(mixture), marginal(p, [0])) <= 1e-12

    def test_k_exceeding_m_rejected(self):
        rng = np.random.default_rng(37)
        p = random_symmetric_ns_box(4, 2, 2, rng)
        with pytest.raises(ValueError):
            definetti_approximation(p, 3)  # m = 2 blocks only


class TestMixtureToBox:
    def test_uniform_component(self):
        mixture = DeFinettiMixture(2, 0.0, ((1.0, uniform_box(1, 2, 2)),))
        assert np.allclose(mixture_to_box(mixture).probs, 0.25)

    def test_two_deterministic_components(self):
        d0 = deterministic_box([0, 0], 2)
        d1 = deterministic_box([1, 1], 2)
        mixture = DeFinettiMixture(2, 1.0, ((0.5, d0), (0.5, d1)))
        box = mixture_to_box(mixture)
        ok, violation = is_no_signalling(box)
        assert ok, violation
        # Perfectly correlated outputs, never anticorrelated.
        assert box.entry((0, 0), (0, 0)) == pytest.approx(0.5)
        assert box.entry((0, 0), (0, 1)) == 0.0

    def test_result_symmetric_and_ns(self):
        rng = np.random.default_rng(38)
        p = random_symmetric_ns_box(4, 2, 2, rng)
        mixture = definetti_approximation(p, 2)
        box = mixture_to_box(mixture)
        assert is_symmetric(box, 1e-9)
        ok, violation = is_no_signalling(box, 1e-9)
        assert ok, violation
        for _, component in mixture.terms:
            assert validate(component).is_valid(1e-9)


class TestBoundCertification:
    def test_symmetrized_pr_pair(self):
        p = symmetrize(product([pr_box(), pr_box()]))
        mixture = definetti_approximation(p, 2)
        assert mixture.bound == pytest.approx(1.0)  # min(2*2*4/2, 2*1/2)
        target = marginal(p, [0, 1])
        dist, _ = general_distance(target, mixture_to_box(mixture))
        assert dist <= mixture.bound + 1e-6

    def test_randomized_bound_certification(self):
        rng = np.random.default_rng(39)
        for n in (4, 6):
            for _ in range(3):
                p = random_symmetric_ns_box(n, 2, 2, rng)
                mixture = definetti_approximation(p, 2)
                target = marginal(p, [0, 1])
                dist, _ = general_distance(target, mixture_to_box(mixture))
                assert dist <= mixture.bound + 1e-6, (n, dist, mixture.bound)

    def test_iid_case_within_bound_but_not_exact(self):
        # For an i.i.d. product the k-marginal is exactly i.i.d., yet the
        # averaged-term mixture correlates repeated block indices, so the
        # distance is positive (0.25 for the uniform box at n=4, k=2)
        # while still within the certified bound.  k=1 stays exact.
        p = product([uniform_box(1, 2, 2)] * 4)
        mixture = definetti_approximation(p, 2)
        dist, _ = general_distance(marginal(p, [0, 1]), mixture_to_box(mixture))
        assert dist == pytest.approx(0.25, abs=1e-9)
        assert dist <= mixture.bound + 1e-6
        exact = definetti_approximation(p, 1)
        assert max_entry_deviation(mixture_to_box(exact), marginal(p, [0])) <= 1e-12
