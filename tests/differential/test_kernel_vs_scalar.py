"""Differential tests: the batched kernels vs the scalar oracle.

Claim under test: every batched sign is either float-certified inside
the same error envelope the scalar predicates use or re-decided by the
very same exact ladder, so ``orient_batch`` agrees with scalar
``orient`` entry for entry, and the SoA engine's flat sweep builds the
hull an external oracle (Qhull) computes.  Hypothesis drives the
instances; the round-level SoA-vs-scalar identity lives in
``test_soa_vs_scalar.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import uniform_ball
from repro.geometry.kernels import orient_batch
from repro.geometry.predicates import orient
from repro.hull import soa_hull

# -- predicate level ---------------------------------------------------------

blocks = st.tuples(
    st.integers(2, 4),          # d
    st.integers(1, 8),          # simplices
    st.integers(1, 12),         # queries
    st.integers(0, 10_000),     # seed
)


@given(blocks)
@settings(max_examples=25, deadline=None)
def test_orient_batch_equals_orient_floats(params):
    d, nf, nq, seed = params
    rng = np.random.default_rng(seed)
    simplices = rng.standard_normal((nf, d, d))
    queries = rng.standard_normal((nq, d))
    got = orient_batch(simplices, queries)
    want = np.array(
        [[orient(simplices[f], queries[q]) for q in range(nq)] for f in range(nf)]
    )
    assert np.array_equal(got, want)


@given(blocks)
@settings(max_examples=25, deadline=None)
def test_orient_batch_equals_orient_integer_grids(params):
    """Small-integer coordinates force exact ties: the filter must
    escalate, never guess."""
    d, nf, nq, seed = params
    rng = np.random.default_rng(seed)
    simplices = rng.integers(-3, 4, size=(nf, d, d)).astype(float)
    queries = rng.integers(-3, 4, size=(nq, d)).astype(float)
    got = orient_batch(simplices, queries)
    want = np.array(
        [[orient(simplices[f], queries[q]) for q in range(nq)] for f in range(nf)]
    )
    assert np.array_equal(got, want)


# -- external oracle ---------------------------------------------------------

@given(st.tuples(st.integers(0, 2_000), st.integers(16, 60), st.sampled_from([2, 3])))
@settings(max_examples=8, deadline=None)
def test_batch_hull_matches_scipy_vertices(params):
    """The SoA engine's batched flat sweep yields Qhull's vertex set."""
    scipy_spatial = pytest.importorskip("scipy.spatial")
    seed, n, d = params
    pts = uniform_ball(n, d, seed=seed + 77)
    run = soa_hull(pts, seed=seed)
    ours = set(map(int, run.vertex_indices()))
    theirs = set(map(int, scipy_spatial.ConvexHull(pts).vertices))
    assert ours == theirs
