"""Separable-state de Finetti approximation and the Jacobi eigensolver.

Two oracles check reduced states: one materializes the full n-party
permutation average and partially traces it (only feasible for small n);
the other sums one Kronecker product per ordered tuple of distinct
indices.  The production path does neither.
"""

import itertools
import math

import numpy as np
import pytest

from nsbox import (
    ConvergenceError,
    DensityMatrix,
    ResourceLimitError,
    SymmetricSeparableSpec,
    Urn,
    definetti_quantum,
    hermitian_eigenvalues,
    hypergeometric_pmf,
    jacobi_eigh,
    mixture_density,
    partial_trace_last,
    reduced_state,
    trace_norm,
    trace_norm_distance,
)


def random_state(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_spec(n, d, n_terms, rng):
    weights = rng.dirichlet(np.ones(n_terms))
    terms = tuple(
        (weights[i], tuple(random_state(d, rng) for _ in range(n))) for i in range(n_terms)
    )
    return SymmetricSeparableSpec(n, d, terms)


def brute_force_reduced(spec, k):
    """Materialize the symmetrized n-party state, then trace down to k."""
    n, d = spec.n, spec.d
    dim = d**n
    full = np.zeros((dim, dim), dtype=complex)
    for w, vecs in spec.terms:
        for perm in itertools.permutations(range(n)):
            v = vecs[perm[0]]
            for j in perm[1:]:
                v = np.kron(v, vecs[j])
            full += (w / math.factorial(n)) * np.outer(v, v.conj())
    rho = DensityMatrix(dim, full)
    while rho.dim > d**k:
        rho = partial_trace_last(rho, d)
    return rho


def per_tuple_reduced(spec, k):
    """Uniform average of tau_{j_1} x ... x tau_{j_k} over distinct index tuples."""
    dk = spec.d**k
    weight = 1.0 / math.perm(spec.n, k)
    acc = np.zeros((dk, dk), dtype=complex)
    for w, vecs in spec.terms:
        for tup in itertools.permutations(range(spec.n), k):
            v = vecs[tup[0]]
            for j in tup[1:]:
                v = np.kron(v, vecs[j])
            acc += (w * weight) * np.outer(v, v.conj())
    return acc


class TestJacobi:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(40)
        for n in (2, 4, 9):
            s = rng.standard_normal((n, n))
            s = (s + s.T) / 2
            w, v = jacobi_eigh(s)
            assert np.max(np.abs(v @ np.diag(w) @ v.T - s)) <= 1e-9
            assert np.max(np.abs(v @ v.T - np.eye(n))) <= 1e-10

    def test_matches_numpy(self):
        rng = np.random.default_rng(41)
        for n in (3, 6, 12):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (h + h.conj().T) / 2
            ours = hermitian_eigenvalues(h)
            ref = np.linalg.eigvalsh(h)
            assert np.max(np.abs(ours - ref)) <= 1e-8

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sweep_cap(self):
        rng = np.random.default_rng(42)
        s = rng.standard_normal((6, 6))
        s = (s + s.T) / 2
        with pytest.raises(ConvergenceError):
            jacobi_eigh(s, max_sweeps=0)


class TestTraceNorm:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(43)
        v = random_state(3, rng)
        rho = DensityMatrix(3, np.outer(v, v.conj()))
        assert trace_norm_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        rho = DensityMatrix(2, np.diag([1.0, 0.0]).astype(complex))
        sigma = DensityMatrix(2, np.diag([0.0, 1.0]).astype(complex))
        assert trace_norm_distance(rho, sigma) == pytest.approx(2.0, abs=1e-12)

    def test_matches_numpy_spectrum(self):
        rng = np.random.default_rng(44)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (h + h.conj().T) / 2
        assert trace_norm(h) == pytest.approx(float(np.abs(np.linalg.eigvalsh(h)).sum()), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_norm_distance(
                DensityMatrix(2, np.eye(2, dtype=complex) / 2),
                DensityMatrix(3, np.eye(3, dtype=complex) / 3),
            )


class TestReducedState:
    def test_identical_states_give_pure_power(self):
        rng = np.random.default_rng(45)
        psi = random_state(2, rng)
        spec = SymmetricSeparableSpec(3, 2, ((1.0, (psi,) * 3),))
        rho = reduced_state(spec, 2)
        pair = np.kron(psi, psi)
        assert np.max(np.abs(rho.entries - np.outer(pair, pair.conj()))) <= 1e-12

    def test_two_orthogonal_states(self):
        zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        spec = SymmetricSeparableSpec(2, 2, ((1.0, (zero, one)),))
        rho = reduced_state(spec, 2)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.5
        assert np.max(np.abs(rho.entries - expected)) <= 1e-14

    def test_trace_one_and_valid(self):
        rng = np.random.default_rng(46)
        spec = random_spec(5, 2, 3, rng)
        rho = reduced_state(spec, 2)
        assert complex(np.trace(rho.entries)).real == pytest.approx(1.0, abs=1e-12)
        rho.validate(1e-9)

    def test_against_brute_force(self):
        rng = np.random.default_rng(47)
        spec = random_spec(4, 2, 2, rng)
        for k in (1, 2, 3):
            fast = reduced_state(spec, k)
            slow = brute_force_reduced(spec, k)
            assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-11, k

    def test_against_per_tuple_sum(self):
        rng = np.random.default_rng(53)
        for n, d, k in ((3, 2, 3), (5, 2, 4), (6, 3, 3), (6, 2, 5), (7, 1, 5), (4, 4, 2)):
            spec = random_spec(n, d, 2, rng)
            fast = reduced_state(spec, k).entries
            assert np.max(np.abs(fast - per_tuple_reduced(spec, k))) <= 1e-11, (n, d, k)

    def test_partial_trace_consistency(self):
        rng = np.random.default_rng(48)
        spec = random_spec(6, 3, 2, rng)
        r3 = reduced_state(spec, 3)
        r2 = reduced_state(spec, 2)
        assert np.max(np.abs(partial_trace_last(r3, 3).entries - r2.entries)) <= 1e-10

    def test_position_weights_match_urn(self):
        # The uniform weight over ordered distinct tuples with n positions
        # is exactly the position-level hypergeometric pmf.
        n, k = 6, 3
        urn = Urn(tuple(range(n)))
        weight = 1.0
        for t in range(k):
            weight /= n - t
        for tup in itertools.permutations(range(n), k):
            assert hypergeometric_pmf(urn, tup) == weight

    def test_dimension_cap(self):
        rng = np.random.default_rng(49)
        spec3 = random_spec(8, 3, 1, rng)  # 3**6 = 729 exceeds the cap
        with pytest.raises(ResourceLimitError):
            reduced_state(spec3, 6)

    def test_bell_cap_for_one_dimension(self):
        # d = 1 keeps d**k at 1, but the Bell(k) partitions still grow; the
        # cap on max(d, 2)**k stops k at 8.
        spec = SymmetricSeparableSpec(10, 1, ((1.0, tuple(np.ones(1) for _ in range(10))),))
        assert np.allclose(reduced_state(spec, 8).entries, [[1.0]])
        mixture, _ = definetti_quantum(spec, 9)
        for compute in (reduced_state, lambda s, k: mixture_density(mixture, k)):
            with pytest.raises(ResourceLimitError):
                compute(spec, 9)


class TestDeFinettiQuantum:
    def test_identical_states_distance_zero(self):
        rng = np.random.default_rng(50)
        psi = random_state(3, rng)
        spec = SymmetricSeparableSpec(4, 3, ((1.0, (psi,) * 4),))
        mixture, bound = definetti_quantum(spec, 2)
        sigma = mixture[0][1]
        assert np.max(np.abs(sigma.entries - np.outer(psi, psi.conj()))) <= 1e-12
        dist = trace_norm_distance(reduced_state(spec, 2), mixture_density(mixture, 2))
        assert dist <= 1e-10

    def test_hand_case(self):
        # n=2, k=2, states {|0>, |1>}: the reduced state is the uniform
        # mixture of |01> and |10>, the approximation is (I/2)^(x2), the
        # eigenvalues of the difference are (-1/4, 1/4, 1/4, -1/4).
        zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        spec = SymmetricSeparableSpec(2, 2, ((1.0, (zero, one)),))
        mixture, bound = definetti_quantum(spec, 2)
        assert bound == pytest.approx(2.0)
        sigma = mixture[0][1]
        assert np.max(np.abs(sigma.entries - np.eye(2) / 2)) <= 1e-14
        dist = trace_norm_distance(reduced_state(spec, 2), mixture_density(mixture, 2))
        assert dist == pytest.approx(1.0, abs=1e-12)

    def test_bound_arithmetic(self):
        rng = np.random.default_rng(51)
        _, bound = definetti_quantum(random_spec(6, 2, 1, rng), 2)
        assert bound == pytest.approx(2 / 3)

    def test_randomized_bound(self):
        rng = np.random.default_rng(52)
        for _ in range(8):
            d = int(rng.choice([2, 3]))
            n = int(rng.choice([4, 6, 8]))
            k = int(rng.choice([2, 3]))
            spec = random_spec(n, d, int(rng.integers(1, 5)), rng)
            mixture, bound = definetti_quantum(spec, k)
            dist = trace_norm_distance(reduced_state(spec, k), mixture_density(mixture, k))
            assert dist <= bound + 1e-8, (d, n, k, dist, bound)


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        zero = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            SymmetricSeparableSpec(1, 2, ((0.5, (zero,)),))

    def test_states_must_be_unit(self):
        with pytest.raises(ValueError):
            SymmetricSeparableSpec(1, 2, ((1.0, (np.array([1.0, 1.0]),)),))

    def test_term_length_must_match_n(self):
        zero = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            SymmetricSeparableSpec(2, 2, ((1.0, (zero,)),))

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.array([[0.5, 0.5], [0.0, 0.5]])).validate()
        with pytest.raises(ValueError):
            DensityMatrix(2, np.array([[1.5, 0.0], [0.0, -0.5]])).validate()
