"""Unit tests for the batched predicate kernels.

The differential suite (``tests/differential/``) pins kernel-vs-scalar
agreement across inputs and the degenerate corpus; these tests cover
the kernel machinery itself: the filter knob, the counters, the flat
sweep's exact routing, and the FacetFactory's kernel argument.
"""

import numpy as np
import pytest

from repro.geometry import uniform_ball
from repro.geometry.hyperplane import exact_mode
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.kernels import (
    KERNEL_STATS,
    KernelStats,
    batch_planes,
    filter_scale,
    orient_batch,
    visible_flat,
)
from repro.geometry.predicates import orient
from repro.hull.common import Counters, FacetFactory
from repro.runtime.workspan import WorkSpanTracker


def _random_block(d, n_simplices, n_queries, seed):
    rng = np.random.default_rng(seed)
    simplices = rng.standard_normal((n_simplices, d, d))
    queries = rng.standard_normal((n_queries, d))
    return simplices, queries


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orient_batch_matches_scalar(d):
    simplices, queries = _random_block(d, 12, 30, seed=100 + d)
    got = orient_batch(simplices, queries)
    for f in range(simplices.shape[0]):
        for q in range(queries.shape[0]):
            assert got[f, q] == orient(simplices[f], queries[q]), (d, f, q)


@pytest.mark.parametrize("d", [2, 3])
def test_orient_batch_exact_ties(d):
    """Queries lying exactly on the plane must come back 0 (decided by
    the exact fallback, not float luck)."""
    simplices, _ = _random_block(d, 6, 1, seed=7 + d)
    # Each simplex's own vertices lie on its plane.
    queries = simplices[:, 0, :].copy()
    got = orient_batch(simplices, queries)
    for f in range(simplices.shape[0]):
        assert got[f, f] == 0
    assert KERNEL_STATS.fallbacks > 0


def test_batch_planes_rejects_bad_shape():
    with pytest.raises(ValueError, match="F, d, d"):
        batch_planes(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="F, d, d"):
        batch_planes(np.zeros((3, 2, 4)))


def test_filter_scale_rejects_below_one():
    with pytest.raises(ValueError, match="must be >= 1"):
        with filter_scale(0.5):
            pass
    with pytest.raises(ValueError, match="must be >= 1"):
        with filter_scale(float("nan")):
            pass


def test_filter_scale_widens_fallbacks_not_signs():
    d = 3
    simplices, queries = _random_block(d, 10, 40, seed=42)
    base = orient_batch(simplices, queries)
    base_falls = KERNEL_STATS.fallbacks
    with filter_scale(1e12):
        wide = orient_batch(simplices, queries)
    assert np.array_equal(base, wide)
    assert KERNEL_STATS.fallbacks - base_falls > base_falls


def test_filter_scale_restored_after_block():
    simplices, queries = _random_block(2, 4, 8, seed=1)
    with filter_scale(1e12):
        pass
    before = KERNEL_STATS.fallbacks
    orient_batch(simplices, queries)
    # Generic position + unit scale: no fallbacks expected.
    assert KERNEL_STATS.fallbacks == before


def test_kernel_stats_counts_and_reset():
    st = KernelStats()
    st.count_sweep(signs=10, fallbacks=3)
    st.count_sweep(signs=5, fallbacks=0)
    assert st.batched_sweeps == 2
    assert st.batched_signs == 15
    assert st.fallbacks == 3
    assert st.fallback_rate() == 3 / 15
    snap = st.snapshot()
    assert snap == {
        "batched_sweeps": 2,
        "batched_signs": 15,
        "fallbacks": 3,
    }
    st.reset()
    assert st.snapshot() == {k: 0 for k in snap}


def _factory(pts, kernel=None):
    d = pts.shape[1]
    interior = pts[: d + 1].mean(axis=0)
    return FacetFactory(pts, interior, Counters(), kernel=kernel)


def test_make_batch_empty_candidates():
    pts = uniform_ball(10, 2, seed=3)
    fb = _factory(pts)
    facets = fb.make_batch([((0, 1), np.zeros(0, dtype=np.int64))])
    assert facets[0].conflicts.size == 0


def test_always_exact_planes_route_to_scalar_ladder():
    """Under forced-exact planes the float normal is untrustworthy; the
    flat sweep must send every entry of a ``force_exact`` plane to the
    exact path and still agree with the scalar factory."""
    pts = uniform_ball(40, 2, seed=11)
    with exact_mode():
        fs = _factory(pts)
        cands = np.arange(2, 40, dtype=np.int64)
        a = fs.make((0, 1), cands.copy())
        plane = Hyperplane.through(pts[[0, 1]], fs.interior, indices=(0, 1))
    assert plane.always_exact
    stats = KernelStats()
    mask = visible_flat(
        pts, plane.normal[None, :], np.array([plane.offset]),
        np.array([plane.err_scale]), np.array([plane.err_base]),
        np.zeros(cands.size, dtype=np.int64), cands,
        force_exact=np.array([True]), plane_for=lambda k: plane, stats=stats,
    )
    assert np.array_equal(cands[mask], a.conflicts)
    snap = stats.snapshot()
    assert snap["fallbacks"] == snap["batched_signs"] == cands.size


def test_factory_rejects_unknown_kernel():
    pts = uniform_ball(10, 2, seed=0)
    with pytest.raises(ValueError, match="unknown kernel"):
        _factory(pts, "gpu")
    with pytest.raises(ValueError, match="engine='soa'"):
        _factory(pts, "batch")


def test_add_batched_sweep_scalar_equivalent_work():
    """One sweep over blocks [5, 9, 2] costs the same work as the three
    scalar tasks it replaces, and O(log widest) span."""
    scalar = WorkSpanTracker()
    for b in (5, 9, 2):
        scalar.add_task(cost=b, span_cost=4)  # span credit irrelevant to work
    batched = WorkSpanTracker()
    tid = batched.add_batched_sweep([5, 9, 2])
    assert batched.work == scalar.work == 16
    assert batched._tasks[tid].span_cost == int(np.log2(9 + 2))
    # Degenerate sweeps still cost at least one unit.
    empty = WorkSpanTracker()
    empty.add_batched_sweep([])
    assert empty.work == 1
