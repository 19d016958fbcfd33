"""Batched NumPy predicate kernels with an exact-filter fallback.

The hull algorithms spend almost all of their work on *visibility
tests* -- "is point q strictly outside the hyperplane of facet t?" --
the unit Theorem 5.4 counts.  The scalar path evaluates them one
:func:`~repro.geometry.predicates.orient` call (or one
:meth:`~repro.geometry.hyperplane.Hyperplane.side` call) at a time;
this module evaluates whole (facet x candidate-point) blocks in one
``einsum`` sweep over precomputed cofactor normals.

The fast path is *filtered*, exactly like the scalar predicates: each
batched margin comes with the same conservative forward error envelope
that :class:`~repro.geometry.hyperplane.Hyperplane` attaches to its
float normal, and every entry whose margin falls inside the envelope is
re-decided by the existing scalar ladder (exact rational arithmetic,
then Simulation-of-Simplicity tie-breaking on SoS planes).  The batch
kernel therefore cannot *silently* disagree with the scalar oracle: it
either proves a sign with the float filter or delegates the entry to
the very code path the scalar predicates use -- the differential suite
under ``tests/differential/`` pins this down input class by input
class, including the adversarial degenerate corpus.

Consumers:

* :func:`orient_batch` -- a standalone (F, d, d) x (Q, d) -> (F, Q)
  sign kernel, the differential-testing surface against scalar
  :func:`~repro.geometry.predicates.orient`;
* :func:`batch_planes`, :func:`gather_segments` and
  :func:`visible_flat` -- the building blocks of the conflict-list SoA
  engine (:mod:`repro.hull.soa`, ``engine="soa"``), which decides a
  whole round's (facet x conflict point) stream in one flat sweep.

Each hull engine runs exactly one visibility kernel: the object
engines (``engine="objects"``) the per-facet scalar
:meth:`~repro.geometry.hyperplane.Hyperplane.visible_mask` oracle, the
SoA engine the flat sweep here.

Counters land in :data:`KERNEL_STATS` (module-global, mirroring
``predicates.STATS``) and per-engine in ``exec_stats`` so experiment
logs can report batched-sweep counts and filter-fallback rates.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from ..analyze.shapes import observe
from ..runtime.atomics import ShardedCounter
from .predicates import STATS, orient_exact

__all__ = [
    "KernelStats",
    "KERNEL_STATS",
    "filter_scale",
    "batch_planes",
    "orient_batch",
    "gather_segments",
    "visible_flat",
]

_EPS = float(np.finfo(np.float64).eps)

# Multiplier applied to the float error envelope of the *batched* fast
# path.  Values > 1 widen the envelope: strictly more entries take the
# exact fallback, and the results must not change (the fallback decides
# the same question exactly).  The fuzzer sweeps this knob
# (``tools/fuzz.py --kernels``); values < 1 would shrink the envelope
# below its soundness proof and are rejected.
_FILTER_SCALE = 1.0


@contextlib.contextmanager
def filter_scale(scale: float) -> Iterator[None]:
    """Inflate the batched filter envelope by ``scale`` (>= 1) within
    the block.  Testing knob: any ``scale >= 1`` must leave every hull
    bit-identical, only the fallback *rate* may grow.

    Not thread-safe with respect to entering/leaving: flip it from the
    orchestrating thread before workers start, as with
    :func:`~repro.geometry.hyperplane.exact_mode`.
    """
    if not (scale >= 1.0):
        raise ValueError(f"filter scale must be >= 1 (got {scale!r}): "
                         "shrinking the envelope voids its error bound")
    global _FILTER_SCALE
    prev = _FILTER_SCALE
    _FILTER_SCALE = float(scale)
    try:
        yield
    finally:
        _FILTER_SCALE = prev


class KernelStats:
    """Counters for the batched kernels (sharded: hull runs bump them
    from ThreadExecutor / chaos workers).

    ``batched_signs`` counts every sign decided by a batched sweep
    (float-certain *or* escalated); ``fallbacks`` the subset that fell
    through the float filter to the exact ladder.  Reads are exact at
    quiescent points, as with ``predicates.STATS``.
    """

    __slots__ = ("_sweeps", "_signs", "_fallbacks")

    def __init__(self) -> None:
        self._sweeps = ShardedCounter()
        self._signs = ShardedCounter()
        self._fallbacks = ShardedCounter()

    def count_sweep(self, signs: int, fallbacks: int) -> None:
        self._sweeps.add(1)
        if signs:
            self._signs.add(signs)
        if fallbacks:
            self._fallbacks.add(fallbacks)

    @property
    def batched_sweeps(self) -> int:
        return self._sweeps.value

    @property
    def batched_signs(self) -> int:
        return self._signs.value

    @property
    def fallbacks(self) -> int:
        return self._fallbacks.value

    def fallback_rate(self) -> float:
        return self.fallbacks / max(1, self.batched_signs)

    def reset(self) -> None:
        for c in (self._sweeps, self._signs, self._fallbacks):
            c.reset()

    def snapshot(self) -> dict[str, int]:
        return {
            "batched_sweeps": self.batched_sweeps,
            "batched_signs": self.batched_signs,
            "fallbacks": self.fallbacks,
        }


#: Module-level statistics, mirroring ``predicates.STATS``.
KERNEL_STATS = KernelStats()


def batch_planes(
    simplices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cofactor normals, offsets, and error-envelope coefficients for a
    stack of ``(F, d, d)`` simplices, all in one vectorized pass.

    Returns ``(normals, offsets, err_scale, err_base)`` matching what
    :meth:`Hyperplane.through` computes per plane: ``normals[f]`` is the
    (unoriented) cofactor normal of simplex ``f``, and the envelope of a
    query ``q`` against plane ``f`` is
    ``err_scale[f] * (err_base[f] + |q|_inf)``.
    """
    # repro: shape: simplices=(F,d,d):float64, normals=(F,d):float64
    # repro: shape: offsets=(F,):float64, err_scale=(F,):float64
    # repro: shape: err_base=(F,):float64
    #
    # Error-envelope derivation, checked by `repro fpcheck` (atoms are
    # per-plane measured magnitudes: S = max |simplex entry|, B =
    # err_base, R0/R1 = edge row norms, H = hadamard, NRM = n1,
    # OFF = |offset|; ESC = err_scale / eps):
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: fact R0*R1 <= H @d=3
    # repro: fp-bound: fact R0 <= H @d=2
    # repro: fp-bound: fact NRM <= 6*H
    # repro: fp-bound: out normals ~ NRM err 6*H
    # repro: fp-bound: out offsets ~ OFF err 6*d*H*B + 2*d^2*NRM*B
    # repro: fp-bound: out err_scale ~ ESC
    # repro: fp-bound: out err_base ~ B
    # repro: fp-bound: envelope err_scale err_base row_norms hadamard n1
    simplices = np.asarray(simplices, dtype=np.float64)
    if simplices.ndim != 3 or simplices.shape[1] != simplices.shape[2]:
        raise ValueError(f"need (F, d, d) simplices, got {simplices.shape}")
    nf, d, _ = simplices.shape
    # repro: fp-bound: in simplices ~ S
    p0 = simplices[:, :1, :]
    # repro: fp-bound: bind p0 ~ B
    edges = simplices[:, 1:, :] - p0  # (F, d-1, d)
    # repro: fp-bound: bind edges ~ R0 @d=2
    if d == 2:
        normals = np.stack([-edges[:, 0, 1], edges[:, 0, 0]], axis=1)
    elif d == 3:
        e0 = edges[:, 0, :]
        e1 = edges[:, 1, :]
        # repro: fp-bound: bind e0 ~ R0
        # repro: fp-bound: bind e1 ~ R1
        normals = np.cross(e0, e1)
    else:
        # Laplace expansion along the LAST row of [edges; q - p0]:
        # the cofactor of column j carries (-1)^{(d-1)+j}, so this sign
        # (not linalg.cofactor_normal's raw (-1)^j, which Hyperplane
        # re-orients anyway) keeps normal . (q - p0) == det for every
        # d -- the convention orient() decides signs in.
        normals = np.empty((nf, d))
        cols = np.arange(d)
        for j in range(d):
            minors = edges[:, :, cols != j]           # (F, d-1, d-1)
            normals[:, j] = (-1.0) ** (d - 1 + j) * np.linalg.det(minors)
    # repro: fp-bound: bind normals ~ NRM
    offsets = np.einsum("fd,fd->f", normals, p0[:, 0, :])
    row_norms = np.sqrt((edges * edges).sum(axis=2))  # (F, d-1)
    hadamard = row_norms.prod(axis=1) if d > 1 else np.ones(nf)
    n1 = np.abs(normals).sum(axis=1)
    err_scale = 16.0 * d * _EPS * (d * d * hadamard + n1 + 1.0)
    err_base = 1.0 + np.abs(simplices[:, 0, :]).max(axis=1, initial=0.0)
    observe("repro.geometry.kernels.batch_planes",
            simplices=simplices, normals=normals, offsets=offsets,
            err_scale=err_scale, err_base=err_base)
    return normals, offsets, err_scale, err_base


def orient_batch(simplices: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Orientation signs of every query against every simplex plane:
    an ``(F, Q)`` int matrix with ``out[f, q] ==
    orient(simplices[f], queries[q])`` for all entries.

    One einsum sweep computes all ``F x Q`` float margins; entries whose
    margin falls inside the (per-plane, per-query) error envelope are
    re-decided by the exact rational path -- the same
    :func:`~repro.geometry.predicates.orient_exact` the scalar predicate
    escalates to, so agreement with the scalar oracle is structural, not
    statistical.
    """
    # repro: shape: simplices=(F,d,d):float64, queries=(Q,d):float64
    # repro: shape: margins=(F,Q):float64, signs=(F,Q):int8 -> (F,Q):int64
    #
    # The committed envelope below (err_scale * (err_base + q_inf) at
    # _FILTER_SCALE == 1) must dominate the first-order rounding error
    # of the margins sweep; `repro fpcheck` re-derives that bound from
    # the arithmetic (Q here is the query magnitude atom |q|_inf):
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: fact OFF <= d*NRM*B
    # repro: fp-bound: guard env
    # repro: fp-bound: envelope env q_inf
    simplices = np.asarray(simplices, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    # repro: fp-bound: in queries ~ Q
    normals, offsets, err_scale, err_base = batch_planes(simplices)
    # margins[f, q] = normal_f . q - offset_f  (one sweep for the block)
    margins = np.einsum("fd,qd->fq", normals, queries) - offsets[:, None]
    # repro: fp-bound: claim margins <= 16*d*(d*d*H + NRM + 1)*(B + Q)
    q_inf = np.abs(queries).max(axis=1, initial=0.0)                 # (Q,)
    env = _FILTER_SCALE * err_scale[:, None] * (err_base[:, None] + q_inf[None, :])
    signs = np.zeros(margins.shape, dtype=np.int8)
    signs[margins > env] = 1
    signs[margins < -env] = -1
    uncertain = np.abs(margins) <= env
    n_signs = int(margins.size)
    n_fall = int(uncertain.sum())
    STATS.count_float(n_signs)
    if n_fall:
        # The exact-fallback loop IS the filter design: only the
        # envelope-ambiguous entries (a vanishing fraction) take the
        # per-element rational ladder.
        for f, q in zip(*np.nonzero(uncertain)):
            signs[f, q] = orient_exact(simplices[f], queries[q])  # repro: noqa: RPRHOT002
    KERNEL_STATS.count_sweep(n_signs, n_fall)
    observe("repro.geometry.kernels.orient_batch",
            simplices=simplices, queries=queries, margins=margins,
            signs=signs)
    return signs.astype(np.int64)


def gather_segments(
    starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ragged segments of a pooled array into gather positions.

    Segment ``k`` occupies ``pool[starts[k] : starts[k] + lens[k]]``.
    Returns ``(pos, owner)`` where ``pool[pos]`` is the concatenation of
    all segments in order and ``owner[i]`` is the segment index that
    produced entry ``i`` -- the prefix-sum gather the SoA conflict-list
    engine uses to pull every ready facet's conflict list in one indexed
    load, with no per-facet Python loop.
    """
    # repro: shape: starts=(K,):int64, lens=(K,):int64
    # repro: shape: pos=(M,):int64, owner=(M,):int64
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    owner = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
    total = int(lens.sum())
    if not total:
        return np.zeros(0, dtype=np.int64), owner
    ends = np.cumsum(lens)
    # Within-segment offsets: a global arange minus each segment's
    # cumulative start, rebased onto the pool start.
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lens), lens)
    observe("repro.geometry.kernels.gather_segments",
            starts=starts, lens=lens, pos=pos, owner=owner)
    return pos, owner


def visible_flat(
    pts: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    err_scale: np.ndarray,
    err_base: np.ndarray,
    owner: np.ndarray,
    ranks: np.ndarray,
    force_exact: np.ndarray | None = None,
    plane_for=None,
    stats: KernelStats | None = None,
    pts_inf: np.ndarray | None = None,
) -> np.ndarray:
    """Strict-visibility mask for a flat (facet, point) stream.

    ``ranks`` are point ranks into ``pts`` and ``owner[i]`` the row of
    the plane stack that entry ``i`` is tested against -- the flattened
    form of a whole round's (ready facet x conflict point) block.  One
    einsum computes every float margin; entries inside the per-plane
    error envelope -- plus every entry of a plane flagged in
    ``force_exact`` (always-exact planes carry no trustworthy float
    sign) -- are re-decided by the scalar ladder of the materialized
    :class:`~repro.geometry.hyperplane.Hyperplane` that ``plane_for(k)``
    returns, so the flat sweep cannot silently disagree with the scalar
    oracle: identical filter, identical fallback.  ``pts_inf``, when
    given, must be ``np.abs(pts).max(axis=1)`` -- a caller that sweeps
    many rounds precomputes it once instead of re-reducing the gathered
    coordinate block every call.
    """
    # repro: shape: ranks=(M,):int64, owner=(M,):int64
    # repro: shape: pts_flat=(M,d):float64, margins=(M,):float64
    # repro: shape: env=(M,):float64, mask=(M,):bool
    #
    # Filter-boundary admission for `repro fpcheck`: the plane columns
    # arrive with batch_planes' proven error summaries, and the margin
    # sweep must stay inside the same committed envelope (atoms as in
    # batch_planes; Q = gathered point magnitude |p|_inf):
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: in normals ~ NRM err 6*H
    # repro: fp-bound: in offsets ~ OFF err 6*d*H*B + 2*d^2*NRM*B
    # repro: fp-bound: fact OFF <= d*NRM*B
    # repro: fp-bound: guard env
    # repro: fp-bound: envelope scale packed env
    if not ranks.size:
        return np.zeros(0, dtype=bool)
    d = pts.shape[1]
    # repro: fp-bound: in pts ~ Q
    pts_flat = pts[ranks]
    # Pack every per-plane scalar the sweep needs into one (K, d+3)
    # matrix so the per-entry stream costs a *single* wide gather
    # instead of five separate fancy-indexed passes (normals, offsets,
    # err_scale, err_base): columns are [normal | offset | scale |
    # scale*err_base].  K (planes) is small; M (entries) is the round.
    packed = np.empty((normals.shape[0], d + 3), dtype=np.float64)
    packed[:, :d] = normals
    packed[:, d] = offsets
    scale = _FILTER_SCALE * err_scale
    packed[:, d + 1] = scale
    packed[:, d + 2] = scale * err_base
    g = packed[owner]
    gn = g[:, :d]    # repro: fp-bound: in gn ~ NRM err 6*H
    go = g[:, d]     # repro: fp-bound: in go ~ OFF err 6*d*H*B + 2*d^2*NRM*B
    margins = np.einsum("md,md->m", pts_flat, gn)
    margins -= go
    # repro: fp-bound: claim margins <= 16*d*(d*d*H + NRM + 1)*(B + Q)
    q_inf = (np.abs(pts_flat).max(axis=1) if pts_inf is None
             else pts_inf[ranks])
    env = g[:, d + 1] * q_inf
    env += g[:, d + 2]
    mask = margins > env
    # |margins| <= env, with the abs in place: margins' raw values are
    # not needed past this point.
    np.abs(margins, out=margins)
    uncertain = margins <= env
    if force_exact is not None:
        forced = force_exact[owner]
        mask &= ~forced
        uncertain |= forced
    n_signs = int(ranks.shape[0])
    n_fall = int(uncertain.sum())
    STATS.count_float(n_signs)
    if n_fall:
        # Envelope-ambiguous (or forced-exact) entries only: the
        # by-design per-element rational ladder, as in orient_batch.
        for m in np.nonzero(uncertain)[0]:  # repro: noqa: RPRHOT001
            r = int(ranks[m])
            mask[m] = plane_for(int(owner[m]))._side_exact(pts[r], r) > 0  # repro: noqa: RPRHOT002
    KERNEL_STATS.count_sweep(n_signs, n_fall)
    if stats is not None:
        stats.count_sweep(n_signs, n_fall)
    observe("repro.geometry.kernels.visible_flat",
            ranks=ranks, owner=owner, pts_flat=pts_flat,
            margins=margins, env=env, mask=mask)
    return mask
