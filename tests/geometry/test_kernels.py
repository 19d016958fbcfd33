"""Unit tests for the batched predicate kernels.

The differential suite (``tests/differential/``) pins kernel-vs-scalar
agreement across inputs and the degenerate corpus; these tests cover
the kernel machinery itself: the filter knob, the counters, the flat
sweep's exact routing and its run-length contract, the flat sweep
against the fancy-indexed einsum formulation it replaced, and the
FacetFactory's kernel argument.
"""

import numpy as np
import pytest

import repro.hull.soa as soa_module
from repro.geometry import kernels, uniform_ball
from repro.geometry.degenerate import corpus_case, corpus_names
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
from repro.hull import robust_hull
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
        np.array([cands.size]), cands,
        force_exact=np.array([True]), plane_for=lambda k: plane, stats=stats,
    )
    assert np.array_equal(cands[mask], a.conflicts)
    snap = stats.snapshot()
    assert snap["fallbacks"] == snap["batched_signs"] == cands.size


def test_visible_flat_rejects_counts_that_miss_the_stream():
    """The run lengths must cover the stream exactly: a mismatch would
    shift every later entry onto the wrong plane."""
    pts = uniform_ball(10, 2, seed=0)
    planes = batch_planes(pts[None, :2])
    for counts, m in (([3], 4), ([5], 4), ([0, 2], 3)):
        cols = [np.repeat(c, len(counts)) for c in planes]
        with pytest.raises(ValueError, match="run lengths sum to"):
            visible_flat(pts, *cols, np.array(counts), np.arange(m))


def _reference_flat(pts, normals, offsets, err_scale, err_base, counts,
                    ranks, force_exact=None, plane_for=None):
    """The flat sweep as it was before the run-length rewrite: a
    per-entry owner, one fancy-indexed gather of a packed (K, d+3)
    plane matrix, an einsum for the margins, the same envelope and the
    same per-entry exact fallback.  Returns ``(mask, fallbacks)``."""
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    d = pts.shape[1]
    pts_flat = pts[ranks]
    packed = np.empty((normals.shape[0], d + 3), dtype=np.float64)
    packed[:, :d] = normals
    packed[:, d] = offsets
    scale = kernels._FILTER_SCALE * err_scale
    packed[:, d + 1] = scale
    packed[:, d + 2] = scale * err_base
    g = packed[owner]
    margins = np.einsum("md,md->m", pts_flat, g[:, :d])
    margins -= g[:, d]
    env = g[:, d + 1] * np.abs(pts_flat).max(axis=1)
    env += g[:, d + 2]
    mask = margins > env
    uncertain = np.abs(margins) <= env
    if force_exact is not None:
        forced = force_exact[owner]
        mask &= ~forced
        uncertain |= forced
    for m in np.nonzero(uncertain)[0]:
        r = int(ranks[m])
        mask[m] = plane_for(int(owner[m]))._side_exact(pts[r], r) > 0
    return mask, int(uncertain.sum())


def _random_stream(d, seed, n=60, k=12):
    """Planes through random point tuples and a grouped stream with
    empty runs, exact ties (each plane's own defining points) and
    near-ties (a block of points snapped to the integer grid)."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) * 3.0
    pts[: n // 4] = np.round(pts[: n // 4])
    interior = pts.mean(axis=0)
    planes, defining = [], []
    while len(planes) < k:
        idx = sorted(map(int, rng.choice(n, d, replace=False)))
        try:
            planes.append(Hyperplane.through(pts[idx], interior))
        except ValueError:
            continue
        defining.append(idx)
    runs = []
    for i, idx in enumerate(defining):
        if i in (0, k // 2) or rng.random() < 0.2:
            runs.append(np.zeros(0, dtype=np.int64))
        else:
            runs.append(np.concatenate([
                rng.integers(0, n, int(rng.integers(1, 30))), idx,
            ]))
    counts = np.array(list(map(len, runs)), dtype=np.int64)
    ranks = np.concatenate(runs).astype(np.int64)
    cols = (
        np.stack([p.normal for p in planes]),
        np.array([p.offset for p in planes]),
        np.array([p.err_scale for p in planes]),
        np.array([p.err_base for p in planes]),
    )
    force = rng.random(k) < 0.3
    return pts, planes, cols, counts, ranks, force


@pytest.mark.parametrize("scale", [1, 4])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_flat_sweep_matches_einsum_reference(d, seed, scale):
    """Random grouped streams: the run-length column sweep returns the
    reference formulation's mask bit for bit, with and without
    force_exact rows, and that mask is the exact answer."""
    pts, planes, cols, counts, ranks, force = _random_stream(d, 40 * d + seed)
    with filter_scale(scale):
        for fe in (None, force):
            stats = KernelStats()
            got = visible_flat(pts, *cols, counts, ranks, force_exact=fe,
                               plane_for=planes.__getitem__, stats=stats)
            want, _ = _reference_flat(pts, *cols, counts, ranks,
                                      force_exact=fe,
                                      plane_for=planes.__getitem__)
            assert got.dtype == bool and np.array_equal(got, want)
            assert stats.batched_signs == ranks.size
            assert 0 < stats.fallbacks <= stats.batched_signs
    owner = np.repeat(np.arange(counts.size), counts)
    exact = [planes[k]._side_exact(pts[r], int(r)) > 0
             for k, r in zip(owner, ranks)]
    assert np.array_equal(got, exact)


@pytest.mark.parametrize("name", corpus_names())
def test_flat_sweep_matches_einsum_reference_on_corpus(name, monkeypatch):
    """Every sweep the SoA engine runs while the robust ladder hulls a
    degenerate-corpus family -- forced-exact rows, SoS planes, empty
    runs included -- returns the reference formulation's mask, and
    never counts more fallbacks than tests."""
    real = soa_module.visible_flat
    sweeps = []

    def checked(pts, normals, offsets, err_scale, err_base, counts, ranks,
                force_exact=None, plane_for=None, **kw):
        before = KERNEL_STATS.snapshot()
        got = real(pts, normals, offsets, err_scale, err_base, counts,
                   ranks, force_exact=force_exact, plane_for=plane_for, **kw)
        after = KERNEL_STATS.snapshot()
        want, _ = _reference_flat(pts, normals, offsets, err_scale,
                                  err_base, counts, ranks, force_exact,
                                  plane_for)
        assert np.array_equal(got, want)
        signs = after["batched_signs"] - before["batched_signs"]
        falls = after["fallbacks"] - before["fallbacks"]
        assert signs == ranks.size and falls <= signs
        sweeps.append(falls)
        return got

    monkeypatch.setattr(soa_module, "visible_flat", checked)
    pts = corpus_case(name, seed=0)
    for scale in (1, 4):
        with filter_scale(scale):
            try:
                robust_hull(pts, seed=0, engine="soa", kernel="batch")
            except (ValueError, RuntimeError):
                pass  # a family no rung can hull: the sweeps still ran
    assert sweeps


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
