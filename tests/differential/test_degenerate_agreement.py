"""Kernel-vs-scalar agreement over the adversarial degenerate corpus.

Every family in :data:`repro.geometry.degenerate.CORPUS` is a designed
trap for float predicates -- exact ties (duplicates, grids, cocircular
points) or near-ties inside naive tolerances.  The batched kernels (and
the SoA engine's flat sweep built on them) must *escalate* on these, never silently disagree: its float filter may only
certify signs outside the error envelope, so every exact tie lands in
the fallback counter and comes back with the scalar ladder's answer.
"""

import numpy as np
import pytest

from repro.geometry.degenerate import CORPUS
from repro.geometry.kernels import KERNEL_STATS, orient_batch
from repro.geometry.predicates import orient
from repro.hull.robust import robust_hull

#: Families containing *exact* ties (signed volume exactly zero for
#: some simplex x query pair).  The near-* families sit ~1e-13 off the
#: ties -- inside naive tolerances but resolvable by an honest float
#: filter, so the fallback counter may legitimately stay zero there.
TIE_FAMILIES = {
    "duplicates-2d",
    "duplicates-3d",
    "all-coincident",
    "collinear-3d",
    "coplanar-3d",
    "grid-2d",
    "grid-3d",
    "cocircular",
    "cospherical",
}


def _sampled_simplices(pts: np.ndarray, seed: int) -> np.ndarray:
    """A deterministic batch of d-subsets: sliding windows plus random
    draws, so ties between defining points and queries are guaranteed."""
    n, d = pts.shape
    rng = np.random.default_rng(seed)
    rows = [np.arange(i, i + d) % n for i in range(min(n, 10))]
    rows += [rng.choice(n, size=d, replace=False) for _ in range(10)]
    return pts[np.stack(rows)]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_predicate_agreement_on_corpus(name):
    pts = CORPUS[name](0)
    simplices = _sampled_simplices(pts, seed=hash(name) % 2**31)
    got = orient_batch(simplices, pts)
    for f in range(simplices.shape[0]):
        for q in range(pts.shape[0]):
            assert got[f, q] == orient(simplices[f], pts[q]), (name, f, q)
    if name in TIE_FAMILIES:
        # The queries include each simplex's own defining points, so
        # exact ties exist and every one must have taken the fallback.
        assert KERNEL_STATS.fallbacks > 0, name


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_hull_agreement_on_corpus(name):
    """The escalation ladder lands on the same rung and the same facet
    set on the scalar object engine and on the SoA engine's flat
    sweep."""
    pts = CORPUS[name](1)
    scalar = robust_hull(pts, seed=2, certify=False)
    KERNEL_STATS.reset()
    batch = robust_hull(pts, seed=2, certify=False, engine="soa")
    assert batch.mode == scalar.mode, name
    assert batch.run.facet_keys() == scalar.run.facet_keys(), name
    if name in TIE_FAMILIES:
        assert KERNEL_STATS.fallbacks > 0, name
