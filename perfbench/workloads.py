"""The benchmark's workloads: inputs from a seed, the timed operation,
and the reference check of every result.

Each workload loads a different layer of ``repro`` (why each one was
chosen is recorded in ``BENCHMARK.json``):

* ``ball3d``      -- ``soa_hull`` on a uniform ball: the flat visibility
  sweep and the memory it holds;
* ``sphere3d``    -- ``soa_hull`` on a sphere: every point is a vertex, so
  per-facet and per-round costs (pairing, finish) dominate;
* ``certified3d`` -- ``robust_hull(engine="soa")``: validation and the
  independent certificate check;
* ``grid3d``      -- ``soa_hull`` on an integer grid: the exact fallback.

A run hulls a different input each time, up to ``INPUTS_PER_RUN`` (more
than a 24 s run gets through on the reference machine; past it, inputs
repeat), so its median is taken over many random insertion orders
rather than one.  Every workload's ``wall_s`` is corrected for the
shared host's speed by the same two controls (see ``run.CONTROLS``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.geometry.points import integer_grid, on_sphere, uniform_ball

INPUTS_PER_RUN = 64

#: Span names every workload must record (the SoA engine's layers).
SOA_SPANS = (
    "soa.init", "soa.step_round", "soa.pair_ridges", "soa.finish",
    "kernels.batch_planes", "kernels.gather_segments", "kernels.visible_flat",
)
ROBUST_SPANS = (
    "parallel.parallel_hull", "validate.validate_hull",
    "certify.make_certificate", "certify.verify_certificate",
)


@dataclass(frozen=True)
class Workload:
    name: str
    points: str                 # "ball", "sphere" or "grid"
    size: int                   # n, or the grid side
    robust: bool                # robust_hull instead of soa_hull
    expect_spans: tuple[str, ...]

    @property
    def modules(self) -> tuple[str, ...]:
        """The ``repro`` modules the workload imports (its set-up)."""
        hull = "repro.hull.robust" if self.robust else "repro.hull.soa"
        return ("repro.geometry.points", hull)

    def make_input(self, seed: int) -> tuple[np.ndarray, int]:
        """Points and hull insertion-order seed for one input."""
        if self.points == "ball":
            pts = uniform_ball(self.size, 3, seed=seed)
        elif self.points == "sphere":
            pts = on_sphere(self.size, 3, seed=seed)
        else:
            pts = integer_grid(self.size, 3, seed=seed)
        return pts, seed

    def input_seeds(self, seed: int) -> list[int]:
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=INPUTS_PER_RUN)]

    def tiny(self) -> "Workload":
        """The same workload on a small input (warm-up and self-test)."""
        return replace(self, size=6 if self.points == "grid" else 400)


WORKLOADS = {
    w.name: w for w in (
        Workload("ball3d", "ball", 100_000, False, SOA_SPANS),
        Workload("sphere3d", "sphere", 15_000, False, SOA_SPANS),
        Workload("certified3d", "ball", 3_000, True, SOA_SPANS + ROBUST_SPANS),
        Workload("grid3d", "grid", 10, False,
                 SOA_SPANS + ("hyperplane.side_exact",)),
    )
}


def run_op(w: Workload, pts: np.ndarray, hull_seed: int):
    """The timed operation.  Entry points are looked up at call time so
    that a traced run sees the same code as an untraced one."""
    if w.robust:
        from repro.hull import robust
        return robust.robust_hull(pts, seed=hull_seed, engine="soa", kernel="batch")
    from repro.hull import soa
    return soa.soa_hull(pts, seed=hull_seed)


@dataclass
class Summary:
    """What the reference check needs from one result, kept small so a
    run can hold one per operation without raising its peak memory."""

    vertices: np.ndarray        # sorted original indices of hull vertices
    n_facets: int
    counts: dict                # exact counts, identical across repeats
    problems: list              # checks that need the full result


def summarize(w: Workload, result, pts: np.ndarray) -> Summary:
    run = result.run if w.robust else result
    ks = run.exec_stats.kernel_stats
    counts = {
        "rounds": int(run.exec_stats.rounds),
        "visibility_tests": int(run.counters.visibility_tests),
        "facets_created": int(run.counters.facets_created),
        "fallbacks": int(ks["fallbacks"]),
        "batched_signs": int(ks["batched_signs"]),
    }
    problems: list[str] = []
    if w.robust:
        if list(result.escalations) != ["float:ok"]:
            problems.append(f"escalations {result.escalations} != ['float:ok']")
        cert = result.certificate
        if cert is None or cert.mode != "float" or cert.n != pts.shape[0]:
            problems.append("no verified float certificate for the whole input")
        counts["attempts"] = len(result.escalations)
    if w.points == "grid":
        problems += grid_problems(run.points[np.array([f.indices for f in run.facets])], w.size)
    vertices = np.array(sorted(run.vertex_indices()), dtype=np.int64)
    return Summary(vertices, len(run.facets), counts, problems)


def grid_problems(tris: np.ndarray, side: int) -> list[str]:
    """Every facet (``tris``: (F, 3, 3) coordinates) lies in a face plane
    of the cube [0, side-1]^3, and the facet areas sum exactly to the
    cube's surface 6 (side-1)^2.  On an axis plane twice a triangle's
    area is one integer component of its edge cross product."""
    lo, hi = 0.0, float(side - 1)
    flat = (tris == tris[:, :1, :]).all(axis=1)            # (F, 3) shared coordinate
    on_face = flat & ((tris[:, 0, :] == lo) | (tris[:, 0, :] == hi))
    problems = []
    if not on_face.any(axis=1).all():
        problems.append(f"{int((~on_face.any(axis=1)).sum())} facets off the cube faces")
        return problems
    axis = np.argmax(on_face, axis=1)
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]).astype(np.int64)
    twice_area = int(np.abs(cross[np.arange(len(tris)), axis]).sum())
    if twice_area != 2 * 6 * (side - 1) ** 2:
        problems.append(f"facet areas sum to {twice_area / 2} != {6 * (side - 1) ** 2}")
    return problems


def reference_vertices(w: Workload, pts: np.ndarray) -> np.ndarray | None:
    """Hull vertices by an independent implementation (Qhull), or None
    where the workload's check needs none.  Imports scipy only here, so
    a run imports it after its timed operations."""
    if w.points == "grid":
        return None
    from scipy.spatial import ConvexHull
    return np.sort(ConvexHull(pts).vertices)


def reference_problems(
    w: Workload, s: Summary, pts: np.ndarray, ref: np.ndarray | None
) -> list[str]:
    """Everything wrong with one result; empty when it is a correct hull."""
    problems = list(s.problems)
    v = len(s.vertices)
    if s.n_facets != 2 * v - 4:
        problems.append(f"F={s.n_facets} != 2V-4 with V={v}")
    if w.points == "sphere" and v != pts.shape[0]:
        problems.append(f"V={v} != n={pts.shape[0]} on the sphere")
    if ref is not None and not np.array_equal(ref, s.vertices):
        diff = len(set(ref.tolist()) ^ set(s.vertices.tolist()))
        problems.append(f"vertex set differs from Qhull's in {diff} points")
    return problems
