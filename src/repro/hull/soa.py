"""The conflict-list structure-of-arrays hull core (``engine="soa"``).

The per-facet drivers (:mod:`.sequential`, :mod:`.parallel`) run the
paper's algorithms over Python ``Facet`` objects: every ``ProcessRidge``
call allocates tuples, walks ridge sets, and issues its own (small)
visibility sweep.  The kernel bench shows what that costs -- raw
predicate sweeps run >20x over the scalar oracle while end-to-end hulls
sit near 1x, because the driver dominates.  This module is ROADMAP
item 1: the same round-synchronous Algorithm 3, re-expressed so that an
*entire round* is a handful of NumPy sweeps and the per-facet Python
loop disappears.

Memory layout (the parlaylib-style conflict-list representation):

* **Facet store** -- an append-only structure of arrays, one row per
  facet ever created: defining ranks ``indices (F, d)``, oriented float
  planes ``normals (F, d)`` / ``offsets (F,)`` with their error-envelope
  coefficients ``err_scale`` / ``err_base`` (exactly what
  :func:`~repro.geometry.kernels.batch_planes` computes and
  :meth:`~repro.geometry.hyperplane.Hyperplane.through` would), the
  conflict pivot ``pivot (F,)`` (``min C(t)``; ``INT64_MAX`` when
  empty), the conflict-list segment ``conf_start``/``conf_len``, the
  ``alive`` flag, and provenance columns (``support`` pair,
  ``pivot_point``, ``round_created``) for the dependence DAG.
* **Conflict pool** -- one flat, append-only ``int64`` array; facet
  ``f`` owns ``pool[conf_start[f] : conf_start[f] + conf_len[f]]``,
  ascending and unique.  Conflict sets are immutable once written
  (exactly the ``Facet.conflicts`` contract), so rounds only ever
  append.
* **Frontier / pending pool** -- ready ``ProcessRidge(t1, r, t2)``
  calls as three arrays (``t1`` fids, ``t2`` fids, sorted ridge rows
  ``(K, d-1)``), plus the half-registered ridges that Algorithm 3
  keeps in the multimap ``M``: each ridge key is registered at most
  twice over the whole run (the second registrant creates the task),
  so a per-round ``lexsort`` over (pending + new) ridge rows pairs
  adjacent equal rows and is semantically identical to
  ``DictMultimap.insert_and_set`` -- a run of three equal rows would be
  a structural bug and raises.

The round transaction (all vectorized, no per-facet Python loop):

1. gather both pivot columns, classify every ready ridge into the
   paper's four cases with boolean masks (final / bury / flip /
   create);
2. gather every creating ridge's two parent conflict segments in one
   indexed load (:func:`~repro.geometry.kernels.gather_segments`),
   filter to ranks strictly above the pivot, and dedupe by a
   ``lexsort`` -- exactly ``FacetFactory.merge_candidates`` +
   ``_clean_candidates``, but for all facets of the round at once;
3. build all new planes in one :func:`batch_planes` call, orienting
   float-certain rows against the interior point in place; ambiguous
   rows (or all rows under :func:`~repro.geometry.hyperplane.exact_mode`)
   materialize a real :class:`Hyperplane` via the scalar ladder, so
   degenerate inputs raise / SoS-perturb exactly as the oracle does;
4. decide all (facet x candidate) visibilities in one flat einsum
   sweep (:func:`~repro.geometry.kernels.visible_flat`) with the same
   envelope filter and the same per-entry exact fallback as the
   scalar path;
5. prefix-sum partition the survivors into the new facets' conflict
   segments, append to the store and pool, and pair the new ridges.

Scalar equivalence is structural, not statistical: any float-certain
sign is proven by the envelope, every ambiguous sign takes the scalar
exact ladder, and the paper's determinism theorem makes the created
facet set and all per-facet conflict sets independent of execution
order -- so facet keys, conflict sets, certificates, and the intrinsic
counters (``visibility_tests``, ``facets_created``) match the
sequential scalar oracle exactly (the differential suite under
``tests/differential/test_soa_vs_scalar.py`` pins this).  Work/span
accounting stays scalar-equivalent: each round logs one
:meth:`~repro.runtime.workspan.WorkSpanTracker.add_batched_sweep` at
the round's summed cleaned-candidate cost, so ``tracker.work`` equals
``counters.visibility_tests`` and the span reflects the
round-synchronous schedule.

The flat sweep is this engine's one kernel (``kernel="batch"``, the
default).  A :class:`~repro.geometry.noisy.NoisyKernel` flips its
answers at the mask level: one ``noisy_masks`` call on the round's
flat ``(owner, vals, vis)`` stream, grouped by owner, right after
:func:`~repro.geometry.kernels.visible_flat`.  Sites are keyed by
(facet, rank), so the object engines draw the same flips for the same
question, and a p=0 noisy run is bit-identical to the unwrapped engine.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field

import numpy as np

from ..analyze.shapes import observe
from ..geometry.hyperplane import Hyperplane, exact_active
from ..geometry.kernels import (
    KernelStats,
    batch_planes,
    gather_segments,
    visible_flat,
)
from ..geometry.noisy import NoisyKernel
from ..geometry.perturb import sos_active
from ..geometry.simplex import Facet
from ..runtime.executors import ExecutionStats
from ..runtime.workspan import WorkSpanTracker
from .common import (
    Counters,
    HullSetupError,
    engine_noise,
    initial_simplex_ranks,
    prepare_points,
    promote_initial,
)

__all__ = ["SoAHullEngine", "SoAHullRun", "soa_hull"]

_INF = np.iinfo(np.int64).max

_INDICES_OF = operator.attrgetter("indices")


def _grown(arr: np.ndarray, cap: int) -> np.ndarray:
    """Reallocate a growable column at ``cap`` rows, keeping content."""
    out = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class _FacetStore:
    """Append-only SoA facet columns with doubling capacity."""

    __slots__ = (
        "d", "size", "indices", "normals", "offsets", "err_scale",
        "err_base", "exact", "alive", "pivot", "conf_start", "conf_len",
        "support", "pivot_point", "round_created",
    )

    def __init__(self, d: int, capacity: int = 64):
        self.d = d
        self.size = 0
        self.indices = np.zeros((capacity, d), dtype=np.int64)
        self.normals = np.zeros((capacity, d), dtype=np.float64)
        self.offsets = np.zeros(capacity, dtype=np.float64)
        self.err_scale = np.zeros(capacity, dtype=np.float64)
        self.err_base = np.zeros(capacity, dtype=np.float64)
        self.exact = np.zeros(capacity, dtype=bool)
        self.alive = np.zeros(capacity, dtype=bool)
        self.pivot = np.zeros(capacity, dtype=np.int64)
        self.conf_start = np.zeros(capacity, dtype=np.int64)
        self.conf_len = np.zeros(capacity, dtype=np.int64)
        self.support = np.zeros((capacity, 2), dtype=np.int64)
        self.pivot_point = np.zeros(capacity, dtype=np.int64)
        self.round_created = np.zeros(capacity, dtype=np.int64)

    _COLUMNS = (
        "indices", "normals", "offsets", "err_scale", "err_base", "exact",
        "alive", "pivot", "conf_start", "conf_len", "support",
        "pivot_point", "round_created",
    )

    def _ensure(self, extra: int) -> None:
        cap = self.offsets.shape[0]
        if self.size + extra <= cap:
            return
        new_cap = max(2 * cap, self.size + extra)
        self.indices = _grown(self.indices, new_cap)
        self.normals = _grown(self.normals, new_cap)
        self.offsets = _grown(self.offsets, new_cap)
        self.err_scale = _grown(self.err_scale, new_cap)
        self.err_base = _grown(self.err_base, new_cap)
        self.exact = _grown(self.exact, new_cap)
        self.alive = _grown(self.alive, new_cap)
        self.pivot = _grown(self.pivot, new_cap)
        self.conf_start = _grown(self.conf_start, new_cap)
        self.conf_len = _grown(self.conf_len, new_cap)
        self.support = _grown(self.support, new_cap)
        self.pivot_point = _grown(self.pivot_point, new_cap)
        self.round_created = _grown(self.round_created, new_cap)

    def append_block(
        self,
        indices: np.ndarray,
        normals: np.ndarray,
        offsets: np.ndarray,
        err_scale: np.ndarray,
        err_base: np.ndarray,
        exact: np.ndarray,
        pivot: np.ndarray,
        conf_start: np.ndarray,
        conf_len: np.ndarray,
        support: np.ndarray,
        pivot_point: np.ndarray,
        round_created: int,
    ) -> int:
        """Append ``K`` facet rows; returns the first new fid."""
        k = int(indices.shape[0])
        self._ensure(k)
        fid0 = self.size
        end = fid0 + k
        self.indices[fid0:end] = indices
        self.normals[fid0:end] = normals
        self.offsets[fid0:end] = offsets
        self.err_scale[fid0:end] = err_scale
        self.err_base[fid0:end] = err_base
        self.exact[fid0:end] = exact
        self.alive[fid0:end] = True
        self.pivot[fid0:end] = pivot
        self.conf_start[fid0:end] = conf_start
        self.conf_len[fid0:end] = conf_len
        self.support[fid0:end] = support
        self.pivot_point[fid0:end] = pivot_point
        self.round_created[fid0:end] = round_created
        self.size = end
        return fid0

    def snapshot(self) -> dict:
        snap = {"size": self.size}
        snap.update(
            zip(self._COLUMNS,
                map(np.copy, map(self._used, self._COLUMNS)))
        )
        return snap

    def _used(self, name: str) -> np.ndarray:
        return getattr(self, name)[: self.size]

    def restore(self, snap: dict) -> None:
        self.size = 0
        self._ensure(int(snap["size"]))
        self.size = int(snap["size"])
        self.indices[: self.size] = snap["indices"]
        self.normals[: self.size] = snap["normals"]
        self.offsets[: self.size] = snap["offsets"]
        self.err_scale[: self.size] = snap["err_scale"]
        self.err_base[: self.size] = snap["err_base"]
        self.exact[: self.size] = snap["exact"]
        self.alive[: self.size] = snap["alive"]
        self.pivot[: self.size] = snap["pivot"]
        self.conf_start[: self.size] = snap["conf_start"]
        self.conf_len[: self.size] = snap["conf_len"]
        self.support[: self.size] = snap["support"]
        self.pivot_point[: self.size] = snap["pivot_point"]
        self.round_created[: self.size] = snap["round_created"]


class _ConflictPool:
    """Flat append-only int64 pool with doubling capacity."""

    __slots__ = ("buf", "end")

    def __init__(self, capacity: int = 256):
        self.buf = np.zeros(capacity, dtype=np.int64)
        self.end = 0

    def extend(self, vals: np.ndarray) -> int:
        """Append ``vals``; returns the start offset of the block."""
        m = int(vals.shape[0])
        if self.end + m > self.buf.shape[0]:
            self.buf = _grown(self.buf, max(2 * self.buf.shape[0], self.end + m))
        start = self.end
        self.buf[start:start + m] = vals
        self.end = start + m
        return start

    def view(self) -> np.ndarray:
        return self.buf[: self.end]


@dataclass
class SoAHullRun:
    """Outcome of a conflict-list SoA hull run.

    ``facets`` are the alive hull facets, materialized as regular
    :class:`~repro.geometry.simplex.Facet` objects (same planes, same
    conflict arrays) so certification, validation, and serialization
    consume an SoA run unchanged.  The created-facet history stays in
    column form: ``created_indices``/``created_normals`` give every
    facet's geometric key, ``support``/``pivot_points``/
    ``rounds_created`` the dependence DAG.
    """

    points: np.ndarray
    order: np.ndarray
    facets: list[Facet]
    counters: Counters
    exec_stats: ExecutionStats
    tracker: WorkSpanTracker
    interior: np.ndarray
    base_size: int
    created_indices: np.ndarray     # (F, d) defining ranks of every facet
    created_normals: np.ndarray     # (F, d) oriented float normals
    created_alive: np.ndarray       # (F,) alive flags
    support: np.ndarray             # (F, 2) support fids, -1 for base facets
    pivot_points: np.ndarray        # (F,) creating pivot, -1 for base facets
    rounds_created: np.ndarray      # (F,) creation round (0 = bootstrap)
    conflict_lens: np.ndarray       # (F,) conflict-list lengths
    conflict_pool: np.ndarray       # flat pool, segments in fid order
    engine: "SoAHullEngine" = field(repr=False, default=None)

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def vertex_ranks(self) -> set[int]:
        return set(map(int, np.unique(self.created_indices[self.created_alive])))

    def vertex_indices(self) -> set[int]:
        return set(map(int, self.order[sorted(self.vertex_ranks())]))

    def facet_keys(self) -> set:
        return set(map(Facet.key, self.facets))

    def _keys_of(self, rows: np.ndarray, normals: np.ndarray) -> list:
        # Vectorized Facet.key(): point set plus the sign of the first
        # nonzero normal component (0 for exactly-zero SoS normals).
        nz = normals != 0.0
        has = nz.any(axis=1)
        first = np.argmax(nz, axis=1)
        comp = normals[np.arange(rows.shape[0]), first]
        sign = np.where(comp > 0.0, first + 1, -(first + 1))
        sign = np.where(has, sign, 0)
        return list(zip(map(frozenset, rows.tolist()), map(int, sign.tolist())))

    def created_keys(self) -> set:
        return set(self._keys_of(self.created_indices, self.created_normals))

    def created_conflicts(self) -> dict:
        """Geometric key -> conflict array, for every facet ever
        created (the per-facet conflict sets the determinism theorem
        makes execution-order independent)."""
        bounds = np.cumsum(self.conflict_lens)[:-1]
        keys = self._keys_of(self.created_indices, self.created_normals)
        return dict(zip(keys, np.split(self.conflict_pool, bounds)))

    def dependence_depth(self) -> int:
        """Longest support-DAG path, computed round-group by round-group
        (supports always come from strictly earlier rounds)."""
        nf = self.support.shape[0]
        depth = np.zeros(nf, dtype=np.int64)
        rc = self.rounds_created
        last = int(rc.max(initial=0))
        bounds = np.searchsorted(rc, np.arange(last + 2))
        for r in range(1, last + 1):
            lo, hi = int(bounds[r]), int(bounds[r + 1])
            if hi <= lo:
                continue
            sup = self.support[lo:hi]
            depth[lo:hi] = 1 + np.maximum(depth[sup[:, 0]], depth[sup[:, 1]])
        return int(depth.max(initial=0))


class SoAHullEngine:
    """Round-stepped conflict-list engine (see the module docstring).

    Use :func:`soa_hull` for a plain run; the engine object itself
    exposes :meth:`step_round` / :meth:`snapshot` / :meth:`restore` for
    the chaos-checkpoint property tests and for streaming consumers.
    """

    def __init__(
        self,
        points: np.ndarray,
        order: np.ndarray | None = None,
        seed: int | None = None,
        kernel: str | NoisyKernel | None = None,
        base_size: int | None = None,
    ):
        noisy = engine_noise("soa", kernel)
        pts, order = prepare_points(points, order, seed)
        n, d = pts.shape
        if base_size is None:
            base_size = d + 1
        if base_size < d + 1:
            raise HullSetupError(f"base_size must be >= d+1 = {d + 1}")
        init = initial_simplex_ranks(pts)
        pts, order = promote_initial(pts, order, init)
        self.pts = pts
        self.order = order
        self.n, self.d = n, d
        self.base_size = int(base_size)
        self.counters = Counters()
        self.tracker = WorkSpanTracker()
        self.stats = ExecutionStats()
        self.interior = pts[: d + 1].mean(axis=0)
        self._interior_inf = float(np.abs(self.interior).max(initial=0.0))
        self._pts_inf = np.abs(pts).max(axis=1)
        combo = tuple(range(d + 1))
        self._interior_combo = (pts[list(combo)], combo)
        self.kstats = KernelStats()

        self.noisy = noisy
        # The <=2-registrations ridge invariant is a theorem of the
        # noise-free algorithm; a lying oracle can genuinely violate it.
        self._strict_pairs = noisy is None or noisy.p == 0.0

        self.store = _FacetStore(d)
        self.pool = _ConflictPool()
        self._exact_planes: dict[int, Hyperplane] = {}

        # Leave-one-out column template: row j = all columns except j.
        cols = np.arange(d, dtype=np.int64)
        grid = np.broadcast_to(cols, (d, d))
        self._loo = grid[grid != cols[:, None]].reshape(d, d - 1)

        # Half-registered ridges (Algorithm 3's multimap M), as sorted
        # rows + registrant fids + registration sequence numbers.
        self._pend_rows = np.zeros((0, d - 1), dtype=np.int64)
        self._pend_fids = np.zeros(0, dtype=np.int64)
        self._pend_seq = np.zeros(0, dtype=np.int64)
        self._reg_seq = 0

        self.round = 0
        self.events: list[dict] = []    # per-round decision records
        self._last_tid: int | None = None
        self._finished = False

        self._bootstrap()

    # -- plane materialization (the scalar ladder) -------------------------

    def _through_row(self, idx: tuple) -> Hyperplane:
        """Exactly ``FacetFactory._plane_for``: the scalar-constructed,
        interior-oriented plane (raises / SoS-perturbs on degenerate
        orientation references, as the oracle does)."""
        return Hyperplane.through(
            self.pts[list(idx)], self.interior,
            indices=idx, ref_combo=self._interior_combo,
        )

    def _facet_of(self, fid: int) -> Facet:
        fid = int(fid)
        idx = tuple(map(int, self.store.indices[fid]))
        plane = self._exact_planes.get(fid)
        if plane is None:
            # Float-certain row: the stored columns ARE the plane
            # Hyperplane.through would build (batch_planes is pinned
            # bit-compatible, and the interior flip was applied when the
            # row was created), so rebuild it from the columns instead
            # of re-running the cofactor expansion per facet -- on a
            # 1e5-point run that cut finish() from ~25% of engine wall
            # time to noise.  Ambiguous rows never reach here: their
            # scalar-ladder planes are persisted in _exact_planes.
            sos = sos_active()
            plane = Hyperplane(
                normal=self.store.normals[fid].copy(),
                offset=float(self.store.offsets[fid]),
                base_points=self.pts[list(idx)],
                ref_point=self.interior,
                err_scale=float(self.store.err_scale[fid]),
                err_base=float(self.store.err_base[fid]),
                always_exact=False,
                base_indices=idx if sos else None,
                sos=sos,
            )
        s = int(self.store.conf_start[fid])
        ln = int(self.store.conf_len[fid])
        return Facet(
            fid=fid, indices=idx, plane=plane,
            conflicts=self.pool.buf[s:s + ln].copy(),
            alive=bool(self.store.alive[fid]),
        )

    # -- facet-block creation ----------------------------------------------

    def _create_block(
        self,
        new_idx: np.ndarray,       # (K, d) sorted defining ranks
        vals: np.ndarray,          # flat cleaned candidate ranks
        owner: np.ndarray,         # (len(vals),) row in 0..K-1
        blocks: np.ndarray,        # (K,) candidate counts per row
        support: np.ndarray,       # (K, 2) support fids (-1 for base)
        pivot_point: np.ndarray,   # (K,) creating pivot (-1 for base)
    ) -> int:
        """Create ``K`` facets from cleaned candidate blocks: planes,
        one visibility sweep, prefix-sum partition into the pool.
        Returns the first new fid."""
        k = int(new_idx.shape[0])
        surv_vals, surv_owner, cols = self._facets_flat(new_idx, vals, owner, blocks)
        normals, offsets, e_scale, e_base, exact_rows = cols

        lens = np.bincount(surv_owner, minlength=k)
        starts_local = np.cumsum(lens) - lens
        pool_start = self.pool.extend(surv_vals)
        pivots = np.full(k, _INF, dtype=np.int64)
        nz = lens > 0
        pivots[nz] = surv_vals[starts_local[nz]]

        fid0 = self.store.append_block(
            indices=new_idx, normals=normals, offsets=offsets,
            err_scale=e_scale, err_base=e_base, exact=exact_rows,
            pivot=pivots, conf_start=pool_start + starts_local,
            conf_len=lens, support=support, pivot_point=pivot_point,
            round_created=self.round,
        )
        return fid0

    def _facets_flat(self, new_idx, vals, owner, blocks):
        """Batch planes + one flat einsum sweep (+ the noise layer)."""
        # The filter boundary of the flat path: the orientation margin
        # below must clear the same committed envelope as
        # Hyperplane.through, with the plane bounds flowing out of the
        # batch_planes summary.  Checked by `repro fpcheck`:
        # repro: fp-bound: assume d in 2..3
        # repro: fp-bound: fact NRM <= 6*H
        # repro: fp-bound: fact OFF <= d*NRM*B
        # repro: fp-bound: guard env_ref certain
        # repro: fp-bound: envelope env_ref
        # repro: fp-bound: in self.interior ~ Q
        k = int(new_idx.shape[0])
        normals, offsets, e_scale, e_base = batch_planes(self.pts[new_idx])
        # Orient against the interior point: float-certain rows flip in
        # place (same envelope test as Hyperplane.through); ambiguous
        # rows -- or every row under exact_mode() -- materialize the
        # real scalar-ladder plane, so ValueError/SoS semantics on
        # degenerate references are byte-for-byte the oracle's.
        m_ref = normals @ self.interior - offsets
        # repro: fp-bound: claim m_ref <= 16*d*(d*d*H + NRM + 1)*(B + Q)
        env_ref = e_scale * (e_base + self._interior_inf)
        if exact_active():
            certain = np.zeros(k, dtype=bool)
        else:
            certain = np.abs(m_ref) > env_ref
        flip = certain & (m_ref > 0.0)
        normals[flip] = -normals[flip]
        offsets[flip] = -offsets[flip]
        exact_rows = ~certain
        row_planes: dict[int, Hyperplane] = {}
        ks = np.nonzero(exact_rows)[0]
        if ks.size:
            planes = list(map(self._through_row, map(tuple, new_idx[ks].tolist())))
            normals[ks] = np.stack(list(map(operator.attrgetter("normal"), planes)))
            offsets[ks] = np.fromiter(
                map(operator.attrgetter("offset"), planes), np.float64, count=ks.size
            )
            row_planes.update(zip(ks.tolist(), planes))

        def plane_for(row: int) -> Hyperplane:
            plane = row_planes.get(row)
            if plane is None:
                plane = self._through_row(tuple(map(int, new_idx[row])))
                row_planes[row] = plane
            return plane

        vis = visible_flat(
            self.pts, normals, offsets, e_scale, e_base, owner, vals,
            force_exact=exact_rows, plane_for=plane_for, stats=self.kstats,
            pts_inf=self._pts_inf,
        )
        if self.noisy is not None:
            # Flip answers after the true mask exists, one facet's block
            # at a time (vals are grouped by owner, ascending).
            bounds = np.cumsum(blocks)[:-1]
            vis = np.concatenate(self.noisy.noisy_masks(
                list(map(tuple, new_idx.tolist())),
                np.split(vals, bounds), np.split(vis, bounds),
            ))
        self.counters.visibility_tests += int(vals.shape[0])
        self.counters.facets_created += k
        # Persist the scalar-ladder planes of always-exact rows so later
        # sweeps (and materialization) reuse them, keyed by fid.
        fid0 = self.store.size
        self._exact_planes.update(
            zip((fid0 + r for r in ks.tolist()),
                map(row_planes.__getitem__, ks.tolist()))
        )
        return vals[vis], owner[vis], (normals, offsets, e_scale, e_base, exact_rows)

    # -- ridge pairing (the multimap M, per round) -------------------------

    def _pair_ridges(self, rows, fids, t1_first: bool):
        """Register new (ridge row, fid) pairs against the pending pool
        and pair up equal ridge keys.  Returns ``(t1, t2, ridge_rows)``
        of the matched tasks; unmatched registrations stay pending.

        Faithful to ``DictMultimap.insert_and_set``: sequence numbers
        order registrants, and equal keys pair two-by-two in arrival
        order.  Noise-free, every ridge key is registered at most twice
        over the whole run (a proven invariant of the algorithm), so a
        longer run raises; under a lying oracle (``p > 0``) the
        invariant can genuinely break, and the dict behavior -- pair
        consecutive registrants, leave a trailing single pending -- is
        what keeps the run alive for the certificate gate to judge."""
        seqs = self._reg_seq + np.arange(rows.shape[0], dtype=np.int64)
        self._reg_seq += int(rows.shape[0])
        all_rows = np.concatenate([self._pend_rows, rows], axis=0)
        all_fids = np.concatenate([self._pend_fids, fids])
        all_seqs = np.concatenate([self._pend_seq, seqs])
        m = int(all_rows.shape[0])
        if m == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros((0, self.d - 1), dtype=np.int64)
        ordx = np.lexsort((all_seqs,) + tuple(all_rows.T[::-1]))
        sr = all_rows[ordx]
        sf = all_fids[ordx]
        ss = all_seqs[ordx]
        eq = (sr[1:] == sr[:-1]).all(axis=1)
        if eq.size > 1 and bool(np.any(eq[1:] & eq[:-1])):
            if self._strict_pairs:
                raise AssertionError(
                    "a ridge key was registered more than twice"
                )
            # Arrival-order two-by-two pairing within each equal-key run.
            new_run = np.ones(m, dtype=bool)
            new_run[1:] = ~eq
            run_id = np.cumsum(new_run) - 1
            run_start = np.nonzero(new_run)[0]
            pos = np.arange(m) - run_start[run_id]
            i = np.nonzero((pos[:-1] % 2 == 0) & eq)[0]
        else:
            i = np.nonzero(eq)[0]
        first, second = sf[i], sf[i + 1]  # seq-ordered within each pair
        singles = np.ones(m, dtype=bool)
        singles[i] = False
        singles[i + 1] = False
        self._pend_rows = sr[singles]
        self._pend_fids = sf[singles]
        self._pend_seq = ss[singles]
        if t1_first:
            return first, second, sr[i]
        return second, first, sr[i]

    # -- bootstrap ---------------------------------------------------------

    def _bootstrap(self) -> None:
        n, d = self.n, self.d
        base = self.base_size
        if base == d + 1:
            cols = np.arange(d + 1, dtype=np.int64)
            grid = np.broadcast_to(cols, (d + 1, d + 1))
            base_rows = grid[grid != cols[:, None]].reshape(d + 1, d)
        else:
            # Larger bootstrap: prefix hull built sequentially, its
            # facets re-issued with full conflict sets (parallel.py
            # parity; the prefix run's counters are discarded there too).
            from .sequential import sequential_hull
            prefix = sequential_hull(self.pts[:base], order=np.arange(base))
            base_rows = np.array(
                list(map(_INDICES_OF, prefix.facets)), dtype=np.int64
            ).reshape(-1, d)
        nb = int(base_rows.shape[0])
        later = np.arange(base, n, dtype=np.int64)
        vals = np.tile(later, nb)
        owner = np.repeat(np.arange(nb, dtype=np.int64), later.shape[0])
        blocks = np.full(nb, later.shape[0], dtype=np.int64)
        no_sup = np.full((nb, 2), -1, dtype=np.int64)
        no_piv = np.full(nb, -1, dtype=np.int64)
        fid0 = self._create_block(base_rows, vals, owner, blocks, no_sup, no_piv)
        if int(blocks.sum()):
            self._last_tid = self.tracker.add_batched_sweep(
                list(map(int, blocks))
            )
        # Seed: one ProcessRidge per ridge of the base hull.
        reg_rows = base_rows[:, self._loo].reshape(nb * d, d - 1)
        reg_fids = np.repeat(fid0 + np.arange(nb, dtype=np.int64), d)
        t1, t2, rows = self._pair_ridges(reg_rows, reg_fids, t1_first=True)
        if self._pend_rows.shape[0]:
            raise AssertionError("base hull is not closed: unpaired ridges")
        self._fr_t1, self._fr_t2, self._fr_rows = t1, t2, rows
        self.round = 1

    # -- the round transaction ---------------------------------------------

    def step_round(self) -> bool:
        """Process the whole ready frontier as one vectorized
        transaction; returns False when the run has terminated."""
        if self._finished:
            raise RuntimeError("engine already finished")
        t1, t2, rows = self._fr_t1, self._fr_t2, self._fr_rows
        k0 = int(t1.shape[0])
        if k0 == 0:
            return False
        # repro: shape: t1=(K,):int64, t2=(K,):int64, rows=(K,?):int64
        observe("repro.hull.soa.SoAHullEngine.step_round",
                t1=t1, t2=t2, rows=rows)
        self.stats.rounds += 1
        self.stats.round_sizes.append(k0)
        self.stats.tasks_executed += k0
        self.counters.ridges_processed += k0

        b1 = self.store.pivot[t1]
        b2 = self.store.pivot[t2]
        final_m = (b1 == _INF) & (b2 == _INF)
        bury_m = ~final_m & (b1 == b2)
        act_m = ~final_m & ~bury_m
        flip_m = act_m & (b2 < b1)
        self.counters.flips += int(flip_m.sum())

        # Case 2: equal pivots bury both facets (idempotent on already-
        # dead facets, exactly like the per-facet driver).
        self.store.alive[t1[bury_m]] = False
        self.store.alive[t2[bury_m]] = False
        self.counters.facets_buried += 2 * int(bury_m.sum())

        # Case 3+4: symmetry flip, then create t = r + p.
        ft1 = np.where(flip_m, t2, t1)
        ft2 = np.where(flip_m, t1, t2)
        pv = np.where(flip_m, b2, b1)
        t1c, t2c = ft1[act_m], ft2[act_m]
        pc = pv[act_m]
        rc = rows[act_m]
        k = int(t1c.shape[0])

        rec = {
            "round": self.round,
            "final_pos": np.nonzero(final_m)[0],
            "final_rows": rows[final_m],
            "bury_pos": np.nonzero(bury_m)[0],
            "bury_rows": rows[bury_m],
            "bury_pairs": np.stack([t1[bury_m], t2[bury_m]], axis=1)
            if int(bury_m.sum()) else np.zeros((0, 2), dtype=np.int64),
            "bury_piv": b1[bury_m],
            "create_pos": np.nonzero(act_m)[0],
            "create_rows": rc,
            "create_removed": t1c,
            "create_piv": pc,
            "create_fid0": self.store.size,
        }

        if k == 0:
            self.events.append(rec)
            self._fr_t1 = np.zeros(0, dtype=np.int64)
            self._fr_t2 = np.zeros(0, dtype=np.int64)
            self._fr_rows = np.zeros((0, self.d - 1), dtype=np.int64)
            self.round += 1
            return True

        new_idx = np.sort(np.concatenate([rc, pc[:, None]], axis=1), axis=1)

        # Candidate gather: both parents' conflict segments in two
        # indexed loads, filtered strictly above the pivot, cleaned of
        # defining ranks, merged and deduped by one lexsort -- exactly
        # merge_candidates + _clean_candidates for the whole round.
        pos_a, own_a = gather_segments(
            self.store.conf_start[t1c], self.store.conf_len[t1c]
        )
        pos_b, own_b = gather_segments(
            self.store.conf_start[t2c], self.store.conf_len[t2c]
        )
        vals = np.concatenate([self.pool.buf[pos_a], self.pool.buf[pos_b]])
        owner = np.concatenate([own_a, own_b])
        keep = vals > pc[owner]
        for j in range(self.d - 1):
            keep &= vals != rc[owner, j]
        vals, owner = vals[keep], owner[keep]
        # Group by owner, ascending and unique within each group: one
        # radix sort of the fused (owner, rank) key (owner < K <= n and
        # rank < n, so owner*n + rank is collision-free in int64),
        # then adjacent-equal dedupe on the key itself.
        fused = owner * np.int64(self.n) + vals
        fused.sort(kind="stable")
        if fused.shape[0]:
            keep2 = np.ones(fused.shape[0], dtype=bool)
            np.not_equal(fused[1:], fused[:-1], out=keep2[1:])
            fused = fused[keep2]
        owner, vals = np.divmod(fused, np.int64(self.n))
        blocks = np.bincount(owner, minlength=k)
        # repro: shape: vals=(M,):int64, owner=(M,):int64, blocks=(K,):int64
        observe("repro.hull.soa.SoAHullEngine._candidates",
                vals=vals, owner=owner, blocks=blocks)

        fid0 = self._create_block(
            new_idx, vals, owner, blocks,
            support=np.stack([t1c, t2c], axis=1), pivot_point=pc,
        )
        self.store.alive[t1c] = False
        self.counters.facets_replaced += k
        self.events.append(rec)

        # Scalar-equivalent work/span: the round's sweep is one batched
        # task over the cleaned blocks, chained on the previous round so
        # the tracker's depth realises the round structure.
        if int(blocks.sum()):
            deps = () if self._last_tid is None else (self._last_tid,)
            self._last_tid = self.tracker.add_batched_sweep(
                list(map(int, blocks)), deps=deps
            )

        # Children: the creation ridge is immediately ready against t2;
        # the other d-1 ridges of each new facet (all containing its
        # pivot) go through the pairing pool.
        new_fids = fid0 + np.arange(k, dtype=np.int64)
        pcol = np.argmax(new_idx == pc[:, None], axis=1)
        loo_rows = new_idx[:, self._loo]              # (K, d, d-1)
        sel = np.ones((k, self.d), dtype=bool)
        sel[np.arange(k), pcol] = False
        reg_rows = loo_rows[sel]                      # (K*(d-1), d-1)
        reg_fids = np.repeat(new_fids, self.d - 1)
        m_t1, m_t2, m_rows = self._pair_ridges(reg_rows, reg_fids, t1_first=False)

        self._fr_t1 = np.concatenate([new_fids, m_t1])
        self._fr_t2 = np.concatenate([t2c, m_t2])
        self._fr_rows = np.concatenate([rc, m_rows], axis=0)
        self.round += 1
        return True

    # -- chaos checkpointing -----------------------------------------------

    def snapshot(self) -> dict:
        """Byte-exact state capture: arrays are copied, counters and
        stats snapshotted, the tracker mark recorded."""
        return {
            "store": self.store.snapshot(),
            "pool": (self.pool.view().copy(), self.pool.end),
            "frontier": (self._fr_t1.copy(), self._fr_t2.copy(),
                         self._fr_rows.copy()),
            "pending": (self._pend_rows.copy(), self._pend_fids.copy(),
                        self._pend_seq.copy()),
            "reg_seq": self._reg_seq,
            "round": self.round,
            "counters": self.counters.as_dict(),
            "stats": copy.deepcopy(self.stats),
            "events": len(self.events),
            "exact_planes": dict(self._exact_planes),
            "tracker_mark": self.tracker.checkpoint(),
            "last_tid": self._last_tid,
        }

    def restore(self, snap: dict) -> None:
        """Rewind to a :meth:`snapshot` (the chaos-rollback contract:
        a rolled-back round leaves no trace, including work accounting
        and fid allocation: fids are store rows)."""
        self.store.restore(snap["store"])
        buf, end = snap["pool"]
        self.pool.end = 0
        self.pool.extend(buf)
        if self.pool.end != end:
            raise AssertionError("conflict pool restore size mismatch")
        self._fr_t1, self._fr_t2, self._fr_rows = (
            snap["frontier"][0].copy(), snap["frontier"][1].copy(),
            snap["frontier"][2].copy(),
        )
        self._pend_rows, self._pend_fids, self._pend_seq = (
            snap["pending"][0].copy(), snap["pending"][1].copy(),
            snap["pending"][2].copy(),
        )
        self._reg_seq = snap["reg_seq"]
        self.round = snap["round"]
        self.counters.restore(snap["counters"])
        self.stats = copy.deepcopy(snap["stats"])
        del self.events[snap["events"]:]
        self._exact_planes = dict(snap["exact_planes"])
        self.tracker.rollback(snap["tracker_mark"])
        self._last_tid = snap["last_tid"]
        self._finished = False

    # -- termination -------------------------------------------------------

    def _kernel_snapshot(self) -> dict:
        snap = {"kernel": "soa[batch]", "engine": "soa"}
        snap.update(self.kstats.snapshot())
        if self.noisy is not None:
            snap["kernel"] = "noisy[soa[batch]]"
            snap.update(self.noisy.snapshot())
        return snap

    def finish(self) -> SoAHullRun:
        """Materialize the result (idempotent once the frontier is
        empty; alive facets become regular Facet objects)."""
        self._finished = True
        self.stats.kernel_stats = self._kernel_snapshot()
        nf = self.store.size
        alive_fids = np.nonzero(self.store.alive[:nf])[0]
        facets = list(map(self._facet_of, alive_fids.tolist()))
        return SoAHullRun(
            points=self.pts,
            order=self.order,
            facets=facets,
            counters=self.counters,
            exec_stats=self.stats,
            tracker=self.tracker,
            interior=self.interior,
            base_size=self.base_size,
            created_indices=self.store.indices[:nf].copy(),
            created_normals=self.store.normals[:nf].copy(),
            created_alive=self.store.alive[:nf].copy(),
            support=self.store.support[:nf].copy(),
            pivot_points=self.store.pivot_point[:nf].copy(),
            rounds_created=self.store.round_created[:nf].copy(),
            conflict_lens=self.store.conf_len[:nf].copy(),
            conflict_pool=self.pool.view().copy(),
            engine=self,
        )


def soa_hull(
    points: np.ndarray,
    order: np.ndarray | None = None,
    seed: int | None = None,
    kernel: str | NoisyKernel | None = None,
    base_size: int | None = None,
) -> SoAHullRun:
    """Run the conflict-list SoA engine to completion.

    Same facet sets, conflict sets, certificates, and intrinsic
    counters as :func:`~repro.hull.sequential.sequential_hull` on the
    same ``(points, order)`` -- the differential suite pins this --
    but each round is a handful of NumPy sweeps instead of a per-facet
    Python loop.
    """
    eng = SoAHullEngine(
        points, order=order, seed=seed, kernel=kernel, base_size=base_size
    )
    while eng.step_round():
        pass
    return eng.finish()
