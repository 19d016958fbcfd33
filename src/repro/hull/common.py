"""Shared machinery for the sequential and parallel incremental hulls.

Both algorithms (paper Algorithms 2 and 3) operate on the same state:
points pre-permuted into insertion order (so *rank == index*, and the
conflict pivot ``min_S(C(t))`` is simply the smallest index in a conflict
array), facets built against a fixed interior reference point, and
conflict sets stored as ascending ``int64`` index arrays so that the hot
"filter the visible candidates" loop is one vectorized hyperplane
evaluation.

Each engine runs exactly one visibility kernel, so ``kernel=`` names
the engine's own kernel or wraps it in noise -- it never picks a second
path.  ``engine="objects"`` (the sequential, parallel and point-parallel
drivers built on :class:`FacetFactory`) runs the scalar per-facet
oracle, ``"scalar"``; ``engine="soa"`` (:mod:`repro.hull.soa`) runs the
flat ``visible_flat`` sweep, ``"batch"``.  ``kernel=None`` means the
engine's own kernel, and a :class:`~repro.geometry.noisy.NoisyKernel`
flips that kernel's answers after the true mask exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..analyze.shapes import observe
from ..geometry.hyperplane import Hyperplane
from ..geometry.noisy import NoisyKernel
from ..geometry.perturb import sos_active
from ..geometry.simplex import Facet
from ..runtime.atomics import Mutex

__all__ = [
    "Counters",
    "ENGINE_KERNELS",
    "HullSetupError",
    "engine_noise",
    "prepare_points",
    "initial_simplex_ranks",
    "promote_initial",
    "FacetFactory",
]


class HullSetupError(ValueError):
    """Raised when the input cannot seed a full-dimensional hull."""


#: The one visibility kernel each engine runs.
ENGINE_KERNELS = {"objects": "scalar", "soa": "batch"}


def engine_noise(engine: str, kernel: str | NoisyKernel | None) -> NoisyKernel | None:
    """Check a ``kernel=`` argument against ``engine``; return the noise
    layer it asks for, or None for the engine's own kernel.

    Accepted: None, the engine's own kernel name, or a
    :class:`~repro.geometry.noisy.NoisyKernel`.  Any other string raises
    a ValueError naming the engine that runs it.
    """
    if engine not in ENGINE_KERNELS:
        raise ValueError(f"unknown engine {engine!r}; use 'objects' or 'soa'")
    if kernel is None or isinstance(kernel, NoisyKernel):
        return kernel
    own = ENGINE_KERNELS[engine]
    if kernel == own:
        return None
    runs = [e for e, k in ENGINE_KERNELS.items() if k == kernel]
    where = (f"kernel {kernel!r} runs on engine={runs[0]!r}" if runs
             else f"unknown kernel {kernel!r}")
    raise ValueError(
        f"{where}; engine={engine!r} runs {own!r} or a NoisyKernel"
    )


@dataclass
class Counters:
    """Operation counters for the work accounting of Theorem 5.4.

    ``visibility_tests`` counts every point-vs-facet side evaluation,
    which is the unit of work both theorems are stated in.
    """

    visibility_tests: int = 0
    facets_created: int = 0
    facets_buried: int = 0
    facets_replaced: int = 0
    ridges_processed: int = 0
    flips: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)

    def restore(self, state: dict[str, int]) -> None:
        """Reset to a snapshot taken with :meth:`as_dict` (chaos layer:
        a rolled-back round's work is uncounted)."""
        self.__dict__.update(state)


def prepare_points(
    points: np.ndarray,
    order: np.ndarray | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate the input cloud and put it in insertion order.

    Returns ``(pts, order)`` where ``pts[i]`` is the point inserted at
    rank ``i`` and ``order[i]`` is its index in the caller's array.  If
    ``order`` is None a uniformly random permutation is drawn from
    ``seed`` (the randomized incremental order of the paper).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise HullSetupError("points must be a 2D (n, d) array")
    n, d = points.shape
    if d < 2:
        raise HullSetupError("dimension must be >= 2")
    if n < d + 1:
        raise HullSetupError(f"need at least d+1={d + 1} points, got {n}")
    if not np.isfinite(points).all():
        raise HullSetupError("points must be finite")
    if order is None:
        order = np.random.default_rng(seed).permutation(n)
    else:
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(n)):
            raise HullSetupError("order must be a permutation of range(n)")
    return points[order], order


def _affinely_independent(chosen: list[np.ndarray], candidate: np.ndarray) -> bool:
    """Exact test: does ``candidate`` extend the affine span of ``chosen``?

    Uses a float rank estimate as a filter and exact rational Gaussian
    elimination to resolve borderline cases, so degenerate inputs (e.g.
    integer grids) are handled correctly.
    """
    if not chosen:
        return True
    base = chosen[0]
    rows = [c - base for c in chosen[1:]] + [candidate - base]
    m = np.asarray(rows)
    k = len(rows)
    # Float filter: compare the k-th singular value against a scale-aware
    # threshold; fall through to the exact test when ambiguous.
    sv = np.linalg.svd(m, compute_uv=False)
    scale = float(sv[0]) if sv.size else 0.0
    tol = 1e-9 * (scale + 1.0)
    if sv.size >= k and sv[k - 1] > tol:
        return True
    return _exact_rank(rows) == k


def _exact_rank(rows: list[np.ndarray]) -> int:
    """Exact rank of a small matrix via rational Gaussian elimination."""
    a = [[Fraction(float(x)) for x in row] for row in rows]
    rank = 0
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    col = 0
    for col in range(n_cols):
        pivot_row = next(
            (i for i in range(rank, n_rows) if a[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = 1 / a[rank][col]
        for i in range(rank + 1, n_rows):
            f = a[i][col] * inv
            if f == 0:
                continue
            for j in range(col, n_cols):
                a[i][j] -= f * a[rank][j]
        rank += 1
        if rank == n_rows:
            break
    return rank


def initial_simplex_ranks(pts: np.ndarray, base_size: int | None = None) -> list[int]:
    """Pick the first affinely independent ``d+1`` ranks, scanning
    forward in insertion order.

    The paper assumes general position so the first ``d+1`` points
    suffice; on degenerate inputs we keep the earliest points that work,
    preserving relative order (callers then re-rank so the chosen points
    occupy ranks ``0..d``).  Raises :class:`HullSetupError` when the
    cloud is not full-dimensional.
    """
    n, d = pts.shape
    need = (base_size if base_size is not None else d + 1)
    if sos_active():
        # Under Simulation of Simplicity every d+1 distinct ranks are
        # affinely independent (the perturbed cloud is in general
        # position), so the paper's assumption holds verbatim: the first
        # points in insertion order seed the simplex, and no input is
        # rejected as flat.
        return list(range(need))
    chosen: list[int] = []
    chosen_pts: list[np.ndarray] = []
    for i in range(n):
        if _affinely_independent(chosen_pts, pts[i]):
            chosen.append(i)
            chosen_pts.append(pts[i])
            if len(chosen) == need:
                return chosen
    raise HullSetupError(
        f"input is not full-dimensional: affine rank {len(chosen) - 1} < {d}"
    )


def promote_initial(pts: np.ndarray, order: np.ndarray, ranks: list[int]):
    """Re-rank so the chosen initial-simplex points occupy ranks 0..d,
    keeping every other point in its original relative order."""
    n = pts.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[list(ranks)] = False
    perm = np.concatenate(
        [np.asarray(ranks, dtype=np.int64), np.nonzero(keep)[0]]
    )
    return pts[perm], order[perm]


class FacetFactory:
    """Creates facets with vectorized conflict-set computation.

    One factory per run; it owns the interior reference point (the
    centroid of the initial simplex, strictly inside every intermediate
    hull) and the work counters.

    Visibility is the object engines' one kernel, the scalar oracle:
    one :meth:`Hyperplane.visible_mask` call per facet.  ``kernel``
    accepts ``"scalar"``, None, or a
    :class:`~repro.geometry.noisy.NoisyKernel`, whose seeded lying
    oracle perturbs the true masks before conflict sets are built.
    Work accounting counts scalar-equivalent *questions* either way
    (vote repetitions land in the noisy kernel's own counters).
    """

    def __init__(self, pts: np.ndarray, interior: np.ndarray, counters: Counters,
                 interior_ranks: tuple[int, ...] | None = None,
                 kernel: str | NoisyKernel | None = None):
        self.pts = pts
        self.interior = np.asarray(interior, dtype=np.float64)
        self.counters = counters
        # Ranks whose (uniform-weight) affine combination the interior
        # point is -- lets SoS planes classify the reference even when
        # it lies exactly on a degenerate facet's plane.
        if interior_ranks is None:
            interior_ranks = tuple(range(pts.shape[1] + 1))
        self._interior_combo = (pts[list(interior_ranks)], interior_ranks)
        self._mutex = Mutex()
        self._next_fid = 0
        self.noisy = engine_noise("objects", kernel)

    def kernel_snapshot(self) -> dict:
        """Kernel provenance for ``exec_stats``."""
        if self.noisy is None:
            return {"kernel": "scalar"}
        snap: dict = {"kernel": "noisy[scalar]"}
        snap.update(self.noisy.snapshot())
        return snap

    def _plane_for(self, indices: tuple[int, ...]) -> Hyperplane:
        return Hyperplane.through(
            self.pts[list(indices)], self.interior,
            indices=indices, ref_combo=self._interior_combo,
        )

    def _clean_candidates(
        self, indices: tuple[int, ...], candidates: np.ndarray
    ) -> np.ndarray:
        # repro: shape: candidates=(C,):int64 -> (*,):int64
        candidates = np.asarray(candidates, dtype=np.int64)
        observe("repro.hull.common.FacetFactory._clean_candidates",
                candidates=candidates)
        if candidates.size:
            # Drop the d defining indices; a few vector compares beat
            # np.isin for constant-size index tuples (hot path).
            keep = np.ones(candidates.shape[0], dtype=bool)
            for i in indices:
                keep &= candidates != i
            candidates = candidates[keep]
        return candidates

    def make(self, indices: tuple[int, ...], candidates: np.ndarray) -> Facet:
        """Build the facet on ``indices`` oriented against the interior
        point, with conflict set = the strictly visible subset of
        ``candidates`` (ascending index array, defining points excluded).

        Thread-safe: the vectorized visibility work runs outside the
        lock; only id allocation and counter updates are serialized.
        """
        return self.make_batch([(indices, candidates)])[0]

    def make_batch(
        self, specs: list[tuple[tuple[int, ...], np.ndarray]]
    ) -> list[Facet]:
        """Build several facets at once; ``specs`` is a list of
        ``(indices, candidates)`` pairs.  Facet ids are allocated in
        spec order."""
        # Canonicalize to sorted rank order *before* building the plane,
        # so plane.base_points rows always match Facet.indices -- the
        # orientation sign a certificate claims is then well-defined
        # (row permutations flip determinant signs).  Visibility is
        # invariant: the plane re-orients against the interior either way.
        idx_list = [tuple(sorted(int(i) for i in idx)) for idx, _ in specs]
        planes = [self._plane_for(idx) for idx in idx_list]
        cand_list = [
            self._clean_candidates(idx, cands)
            for idx, (_, cands) in zip(idx_list, specs)
        ]
        n_tests = sum(int(c.size) for c in cand_list)
        masks = [
            plane.visible_mask(self.pts[cands], indices=cands)
            if cands.size else np.zeros(0, dtype=bool)
            for plane, cands in zip(planes, cand_list)
        ]
        if self.noisy is not None:
            # Perturb *after* the true masks exist: the kernel stays
            # exact underneath, and the flip for a given (facet, rank)
            # site is the same whichever engine computed it.
            masks = self.noisy.noisy_masks(idx_list, cand_list, masks)
        with self._mutex:
            fid0 = self._next_fid
            self._next_fid += len(specs)
            self.counters.visibility_tests += n_tests
            self.counters.facets_created += len(specs)
        return [
            Facet(
                fid=fid0 + k,
                indices=idx_list[k],
                plane=planes[k],
                conflicts=cand_list[k][masks[k]] if cand_list[k].size else cand_list[k],
            )
            for k in range(len(specs))
        ]

    def make_precomputed(
        self, indices: tuple[int, ...], conflicts: np.ndarray, n_tests: int
    ) -> Facet:
        """Register a facet whose conflict sweep was already evaluated
        elsewhere (a worker process in
        :class:`~repro.runtime.procexec.ProcessExecutor` runs).

        The parent allocates the fid, re-counts the scalar-equivalent
        work (``n_tests`` = the candidates the worker swept), and builds
        the plane locally -- plane construction is a pure function of
        ``pts``, so parent and worker agree bit-for-bit, and shipping
        only the surviving conflict indices keeps result messages small.
        """
        idx = tuple(sorted(int(i) for i in indices))
        plane = self._plane_for(idx)
        conflicts = np.asarray(conflicts, dtype=np.int64)
        with self._mutex:
            fid = self._next_fid
            self._next_fid += 1
            self.counters.visibility_tests += int(n_tests)
            self.counters.facets_created += 1
        return Facet(fid=fid, indices=idx, plane=plane, conflicts=conflicts)

    def fid_checkpoint(self) -> int:
        """The next facet id to be issued (chaos layer: rollback mark)."""
        with self._mutex:
            return self._next_fid

    def fid_rollback(self, mark: int) -> None:
        """Rewind id allocation to ``mark`` so a replayed round issues
        the same ids it did before the rollback.  Only valid when every
        facet with id >= ``mark`` has been discarded by the caller."""
        with self._mutex:
            self._next_fid = mark

    @staticmethod
    def merge_candidates(a: np.ndarray, b: np.ndarray, above: int) -> np.ndarray:
        """Ascending union of two (already sorted, unique) conflict
        arrays restricted to indices strictly greater than ``above``
        (the point being inserted).  Fast paths for the common cases
        where one side is empty (facets close to final)."""
        # repro: shape: a=(A,):int64, b=(B,):int64 -> (*,):int64
        observe("repro.hull.common.FacetFactory.merge_candidates", a=a, b=b)
        if a.size and a[0] <= above:
            a = a[np.searchsorted(a, above, side="right"):]
        if b.size and b[0] <= above:
            b = b[np.searchsorted(b, above, side="right"):]
        if not b.size:
            return a
        if not a.size:
            return b
        merged = np.concatenate([a, b])
        merged.sort(kind="stable")
        keep = np.empty(merged.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        return merged[keep]
