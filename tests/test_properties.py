"""Property tests for the closed-form distance, urn and reduced-state paths.

Claims covered:
    - individual <= adaptive, and adaptive is symmetric in its arguments
    - the urn distance depends on the labels only through their counts
      (relabelling leaves it unchanged) and stays within df_bound
    - tracing the last party out of the k-party reduced state gives the
      (k-1)-party reduced state
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vertex_pool
from nsbox import (
    Box,
    SymmetricSeparableSpec,
    Urn,
    adaptive_distance,
    df_bound,
    individual_distance,
    partial_trace_last,
    reduced_state,
    urn_variational_distance,
)

SHAPES = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]


@st.composite
def ns_pairs(draw):
    """Two mixtures of no-signalling vertices of one shape."""
    shape = draw(st.sampled_from(SHAPES))
    pool = vertex_pool(*shape, 8)
    boxes = []
    for _ in range(2):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pool), max_size=len(pool)))
        weights = np.array(weights) + 1e-3
        probs = sum(w * v.probs for w, v in zip(weights / weights.sum(), pool))
        boxes.append(Box(*shape, probs))
    return boxes


@settings(max_examples=40, deadline=None)
@given(ns_pairs())
def test_adaptive_dominates_individual_and_is_symmetric(pair):
    p, q = pair
    d = adaptive_distance(p, q)
    assert individual_distance(p, q) <= d + 1e-12
    assert adaptive_distance(q, p) == d


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=10),
    st.permutations(range(6)),
    st.data(),
)
def test_urn_distance_relabelling_invariant_and_bounded(labels, relabel, data):
    k = data.draw(st.integers(0, len(labels)))
    d = urn_variational_distance(Urn(tuple(labels)), k)
    renamed = Urn(tuple(10 * relabel[v] for v in reversed(labels)))
    assert abs(urn_variational_distance(renamed, k) - d) <= 1e-14
    assert d <= df_bound(len(labels), k, len(set(labels))) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 3),
    st.integers(2, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_reduced_states_are_consistent_under_partial_trace(n, d, k, terms, seed):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    spec_terms = []
    for w in weights:
        vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        spec_terms.append((w, tuple(v / np.linalg.norm(v) for v in vecs)))
    spec = SymmetricSeparableSpec(n, d, tuple(spec_terms))
    traced = partial_trace_last(reduced_state(spec, k), d)
    assert np.max(np.abs(traced.entries - reduced_state(spec, k - 1).entries)) <= 1e-12
