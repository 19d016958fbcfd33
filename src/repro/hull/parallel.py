"""Algorithm 3: the parallel randomized incremental convex hull.

The algorithm runs the *same* computation as the sequential Algorithm 2
-- same facets created, same visibility tests -- but drives it from
ridges instead of points.  A ``ProcessRidge(t1, r, t2)`` call inspects
the conflict pivots of the two facets sharing ridge ``r`` and takes one
of the paper's four actions:

1. both conflict sets empty  -> the ridge is *final* (on the output hull);
2. equal pivots              -> both facets are *buried* by that pivot;
3. pivot of ``t2`` earlier   -> flip and re-dispatch (symmetry);
4. pivot ``p`` of ``t1`` earlier -> ``{t1, t2}`` supports the new facet
   ``t = r + p`` (Fact 5.2): create it, *replace* ``t1``, and recurse on
   the ridges of ``t`` -- the creation ridge directly against ``t2``,
   every other ridge through the multimap ``M`` (the second facet to
   register on a ridge becomes responsible for it).

Everything is recorded into a :class:`ParallelHullRun`: the support DAG
(the configuration dependence graph of Definition 4.1 restricted to
created facets), per-facet rounds, counters, and a work-span task log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry.hyperplane import Hyperplane
from ..geometry.noisy import NoisyKernel
from ..geometry.simplex import Facet, Ridge, facet_ridges
from ..runtime.executors import ExecutionStats, RoundExecutor, SerialExecutor, ThreadExecutor
from ..runtime.faults import FaultPlan
from ..runtime.multimap import CASMultimap, DictMultimap, TASMultimap
from ..runtime.procexec import ChunkQuarantined, ExecutorBrokenError, ProcessExecutor
from ..runtime.workspan import WorkSpanTracker
from .common import (
    Counters,
    FacetFactory,
    HullSetupError,
    initial_simplex_ranks,
    prepare_points,
    promote_initial,
)
from .sequential import sequential_hull

__all__ = ["RidgeTask", "Event", "ParallelHullRun", "parallel_hull", "space_accounting"]

_INF = np.iinfo(np.int64).max


def _eval_ridge_item(arrays: dict, item: tuple) -> tuple:
    """Pure compute kernel for one case-4 ridge, run inside a
    :class:`~repro.runtime.procexec.ProcessExecutor` worker (or on the
    thread/serial rungs of the degradation ladder).

    ``item`` is ``(facet_indices, p, c1, c2)``: the new facet's defining
    ranks, the conflict pivot, and the two support facets' conflict
    arrays.  Returns ``(visible_conflicts, n_tests, n_merged)`` -- the
    surviving conflict set plus the scalar-equivalent work numbers the
    parent re-counts, so a supervised run is facet- and counter-
    identical to a serial one.  Module-level (not a closure) so the
    spawn start method can import it by reference; everything it reads
    arrives via ``arrays`` (shared memory) or ``item`` (the message).
    """
    from .common import FacetFactory  # deferred: keep worker imports lazy

    idx, p, c1, c2 = item
    pts = arrays["pts"]
    interior = arrays["interior"]
    d = pts.shape[1]
    merged = FacetFactory.merge_candidates(
        np.asarray(c1, dtype=np.int64), np.asarray(c2, dtype=np.int64), above=p
    )
    idx = tuple(sorted(int(i) for i in idx))
    combo = tuple(range(d + 1))
    plane = Hyperplane.through(
        pts[list(idx)], interior, indices=idx,
        ref_combo=(pts[list(combo)], combo),
    )
    cleaned = merged
    if cleaned.size:
        keep = np.ones(cleaned.shape[0], dtype=bool)
        for i in idx:
            keep &= cleaned != i
        cleaned = cleaned[keep]
    mask = (plane.visible_mask(pts[cleaned], indices=cleaned)
            if cleaned.size else np.zeros(0, dtype=bool))
    visible = cleaned[mask] if cleaned.size else cleaned
    return (visible, int(cleaned.size), int(merged.size))


@dataclass(frozen=True)
class RidgeTask:
    """One pending ``ProcessRidge(t1, r, t2)`` call."""

    t1: Facet
    ridge: Ridge
    t2: Facet
    tracker_tid: int  # work-span task id of this call


@dataclass(frozen=True)
class Event:
    """Trace record (consumed by the Figure 1 walkthrough and tests).

    ``kind`` is one of ``"final" | "bury" | "create"``; for ``create``,
    ``created`` is the new facet id and ``removed`` the replaced one;
    for ``bury`` both buried ids are in ``removed_pair``.
    """

    kind: str
    round: int
    ridge: Ridge
    created: int = -1
    removed: int = -1
    removed_pair: tuple[int, int] = (-1, -1)
    pivot: int = -1


@dataclass
class ParallelHullRun:
    """Full instrumented outcome of a parallel hull run."""

    points: np.ndarray
    order: np.ndarray
    facets: list[Facet]                    # alive facets (the hull)
    created: list[Facet]                   # every facet ever created, by fid
    support: dict[int, tuple[int, int]]    # fid -> (t1.fid, t2.fid) support pair
    pivots: dict[int, int]                 # fid -> conflict pivot that created it
    rounds: dict[int, int]                 # fid -> execution round of creation
    events: list[Event]
    counters: Counters
    exec_stats: ExecutionStats
    tracker: WorkSpanTracker
    interior: np.ndarray
    base_size: int

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def vertex_ranks(self) -> set[int]:
        return {i for f in self.facets for i in f.indices}

    def vertex_indices(self) -> set[int]:
        return {int(self.order[i]) for i in self.vertex_ranks()}

    def facet_keys(self) -> set:
        return {f.key() for f in self.facets}

    def created_keys(self) -> set:
        return {f.key() for f in self.created}

    def dependence_depth(self) -> int:
        """Longest path in the configuration dependence graph
        (Definition 4.1): base facets have depth 0; a created facet sits
        one level below the deeper of its two support facets.  Facet ids
        ascend along support edges, so a single pass suffices."""
        depth: dict[int, int] = {}
        best = 0
        for f in self.created:
            sup = self.support.get(f.fid)
            d = 0 if sup is None else 1 + max(depth[sup[0]], depth[sup[1]])
            depth[f.fid] = d
            best = max(best, d)
        return best

    def depth_profile(self) -> dict[int, int]:
        """Histogram: dependence depth -> number of facets at it."""
        depth: dict[int, int] = {}
        hist: dict[int, int] = {}
        for f in self.created:
            sup = self.support.get(f.fid)
            d = 0 if sup is None else 1 + max(depth[sup[0]], depth[sup[1]])
            depth[f.fid] = d
            hist[d] = hist.get(d, 0) + 1
        return hist


def _build_base_hull(
    pts: np.ndarray,
    base_size: int,
    factory: FacetFactory,
) -> list[Facet]:
    """Facets of the hull of the first ``base_size`` ranks, with
    conflict sets over all later points, made in one ``make_batch``
    call."""
    n, d = pts.shape
    later = np.arange(base_size, n, dtype=np.int64)
    if base_size == d + 1:
        first = list(range(d + 1))
        return factory.make_batch([
            (tuple(i for i in first if i != leave_out), later)
            for leave_out in first
        ])
    # Larger bootstrap (e.g. the Figure 1 walkthrough): build the prefix
    # hull sequentially, then re-issue its facets with full conflict sets.
    prefix = sequential_hull(pts[:base_size], order=np.arange(base_size))
    return factory.make_batch([(f.indices, later) for f in prefix.facets])


def _soa_parallel_run(
    points: np.ndarray,
    order: np.ndarray | None,
    seed: int | None,
    base_size: int | None,
    kernel: str | NoisyKernel | None,
) -> ParallelHullRun:
    """Run the conflict-list SoA engine and adapt its column state into
    a full :class:`ParallelHullRun` (facets, support DAG, events).

    The adapter materializes every created facet as a ``Facet`` object
    (plane construction per facet, no visibility work), so it costs more
    than :func:`repro.hull.soa.soa_hull` -- use that entry point when
    only the hull and counters are needed.  Determinism makes the
    adapted run facet- and conflict-identical to the object driver;
    events are emitted in (round, frontier-position) order with the
    object driver's round numbering (the bootstrap frontier is round 0).
    """
    from .soa import SoAHullEngine  # local: soa imports this module's peers

    eng = SoAHullEngine(
        points, order=order, seed=seed, kernel=kernel, base_size=base_size
    )
    while eng.step_round():
        pass
    run = eng.finish()

    created = [eng._facet_of(fid) for fid in range(eng.store.size)]
    support = {
        fid: (int(s[0]), int(s[1]))
        for fid, s in enumerate(run.support) if s[0] >= 0
    }
    pivots = {
        fid: int(p) for fid, p in enumerate(run.pivot_points) if p >= 0
    }
    rounds = {
        fid: max(0, int(r) - 1) for fid, r in enumerate(run.rounds_created)
    }
    events: list[Event] = []
    for rec in eng.events:
        rnd = rec["round"] - 1
        items: list[tuple[int, Event]] = []
        for pos, row in zip(rec["final_pos"], rec["final_rows"]):
            items.append((int(pos), Event(
                kind="final", round=rnd,
                ridge=frozenset(int(x) for x in row),
            )))
        for pos, row, pair, piv in zip(
            rec["bury_pos"], rec["bury_rows"], rec["bury_pairs"], rec["bury_piv"]
        ):
            items.append((int(pos), Event(
                kind="bury", round=rnd,
                ridge=frozenset(int(x) for x in row),
                removed_pair=(int(pair[0]), int(pair[1])), pivot=int(piv),
            )))
        fid0 = int(rec["create_fid0"])
        for k, (pos, row, rem, piv) in enumerate(zip(
            rec["create_pos"], rec["create_rows"],
            rec["create_removed"], rec["create_piv"],
        )):
            items.append((int(pos), Event(
                kind="create", round=rnd,
                ridge=frozenset(int(x) for x in row),
                created=fid0 + k, removed=int(rem), pivot=int(piv),
            )))
        items.sort(key=lambda t: t[0])
        events.extend(e for _, e in items)

    return ParallelHullRun(
        points=run.points,
        order=run.order,
        facets=[f for f in created if f.alive],
        created=created,
        support=support,
        pivots=pivots,
        rounds=rounds,
        events=events,
        counters=run.counters,
        exec_stats=run.exec_stats,
        tracker=run.tracker,
        interior=run.interior,
        base_size=run.base_size,
    )


def parallel_hull(
    points: np.ndarray,
    order: np.ndarray | None = None,
    seed: int | None = None,
    executor: SerialExecutor | RoundExecutor | ThreadExecutor | ProcessExecutor | None = None,
    multimap: str = "dict",
    base_size: int | None = None,
    fault_plan: FaultPlan | None = None,
    kernel: str | NoisyKernel | None = None,
    engine: str = "objects",
) -> ParallelHullRun:
    """Run Algorithm 3 on ``points``.

    Parameters
    ----------
    points, order, seed:
        As in :func:`repro.hull.sequential.sequential_hull`; the same
        ``order`` makes the two algorithms comparable facet-for-facet.
    executor:
        Execution discipline (default :class:`RoundExecutor`, whose
        round count realises the dependence-depth bound).  A
        :class:`~repro.runtime.procexec.ProcessExecutor` runs the
        supervised multiprocess round loop: visibility sweeps fan out
        to worker processes over shared-memory arrays, and the parent
        applies results transactionally so the committed run is
        bit-identical to the serial one.  The executor is started and
        closed by this call (segments are released on every exit path).
    multimap:
        ``"dict"`` (sequential reference, only valid with deterministic
        executors), ``"cas"`` (Algorithm 4) or ``"tas"`` (Algorithm 5).
    base_size:
        Bootstrap hull size; defaults to ``d + 1`` per the paper.
    fault_plan:
        When given (with a :class:`RoundExecutor`), run the round loop
        under fault injection: every round is checkpointed (frontier,
        multimap, engine state), crash faults abort a ``ProcessRidge``
        call after its work but before its children commit, and the
        round rolls back to its checkpoint and resumes.  Delay faults
        defer a task to the next round.  The surviving hull is
        bit-identical in facet structure to the fault-free run; the
        retry/rollback counters land in ``exec_stats``.  For thread
        chaos use :class:`repro.runtime.chaos.ChaosThreadExecutor`
        directly.
    kernel:
        The engine's own visibility kernel -- ``"scalar"`` for
        ``engine="objects"``, ``"batch"`` for ``engine="soa"``; None
        (the default) means that one, and the other engine's name
        raises ValueError.  A :class:`~repro.geometry.noisy.NoisyKernel`
        perturbs each visibility decision of the engine's kernel at its
        seeded flip rate (with majority-vote repair); under
        ``engine="objects"`` it is not combinable with
        :class:`ProcessExecutor`, whose workers evaluate sweeps outside
        the factory the noise hooks into.  Kernel provenance and
        counters land in ``exec_stats.kernel_stats``; ``counters`` and
        the work-span log stay scalar-equivalent.
    engine:
        ``"objects"`` (this module's per-facet task driver) or
        ``"soa"`` (the round-vectorized conflict-list engine of
        :mod:`repro.hull.soa`, adapted back into a
        :class:`ParallelHullRun`).  The SoA engine is round-synchronous
        by construction, so it accepts only the default execution
        discipline: no custom executor/multimap and no fault plan
        (chaos-test the SoA core through its own snapshot/restore API).
        The produced run is facet- and conflict-identical to the
        object driver's.
    """
    if engine == "soa":
        if executor is not None and not isinstance(executor, RoundExecutor):
            raise ValueError(
                "engine='soa' is round-synchronous by construction; pass "
                "executor=None (or a plain RoundExecutor)"
            )
        if multimap != "dict":
            raise ValueError(
                "engine='soa' pairs ridges by sort, not a shared multimap; "
                "multimap must stay 'dict'"
            )
        if fault_plan is not None:
            raise ValueError(
                "engine='soa' does not take a fault_plan; drive faults "
                "through SoAHullEngine.snapshot()/restore() instead"
            )
        return _soa_parallel_run(points, order, seed, base_size, kernel)
    if engine != "objects":
        raise ValueError(f"unknown engine {engine!r}; use 'objects' or 'soa'")
    pts, order = prepare_points(points, order, seed)
    n, d = pts.shape
    if base_size is None:
        base_size = d + 1
    if base_size < d + 1:
        raise HullSetupError(f"base_size must be >= d+1 = {d + 1}")
    init = initial_simplex_ranks(pts)
    pts, order = promote_initial(pts, order, init)

    counters = Counters()
    interior = pts[: d + 1].mean(axis=0)
    factory = FacetFactory(pts, interior, counters, kernel=kernel)
    tracker = WorkSpanTracker()

    if executor is None:
        executor = RoundExecutor()
    if factory.noisy is not None and isinstance(executor, ProcessExecutor):
        raise ValueError(
            "NoisyKernel is not supported under ProcessExecutor: worker "
            "processes sweep conflicts outside the FacetFactory the noise "
            "wraps, so flips would silently not apply; use a serial, "
            "round, or thread executor"
        )
    if multimap == "dict":
        if isinstance(executor, ThreadExecutor):
            raise ValueError("the dict multimap is not safe under ThreadExecutor; "
                             "use multimap='cas' or 'tas'")
        M = DictMultimap()
    elif multimap == "cas":
        M = CASMultimap(capacity=max(64, 8 * n * (d + 1)))
    elif multimap == "tas":
        M = TASMultimap(capacity=max(64, 8 * n * (d + 1)))
    else:
        raise ValueError(f"unknown multimap kind {multimap!r}")

    base_facets = _build_base_hull(pts, base_size, factory)

    created: list[Facet] = list(base_facets)
    support: dict[int, tuple[int, int]] = {}
    pivots: dict[int, int] = {}
    rounds: dict[int, int] = {f.fid: 0 for f in base_facets}
    creator_tid: dict[int, int] = {}
    events: list[Event] = []
    facets_by_fid: dict[int, Facet] = {f.fid: f for f in base_facets}

    import math

    def _logcost(w: int) -> int:
        return max(1, int(math.log2(w + 2)))

    for f in base_facets:
        cost = max(1, n - base_size)
        creator_tid[f.fid] = tracker.add_task(cost=cost, span_cost=_logcost(cost))

    # Seed: one ProcessRidge per ridge of the base hull (Lines 5-6).
    ridge_pairs: dict[Ridge, list[Facet]] = {}
    for f in base_facets:
        for r in facet_ridges(f.indices):
            ridge_pairs.setdefault(r, []).append(f)
    initial_tasks: list[RidgeTask] = []
    for r, pair in sorted(ridge_pairs.items(), key=lambda kv: sorted(kv[0])):
        if len(pair) != 2:
            raise AssertionError(f"base-hull ridge {set(r)} has {len(pair)} facets")
        t1, t2 = pair
        tid = tracker.add_task(
            cost=1, deps=(creator_tid[t1.fid], creator_tid[t2.fid])
        )
        initial_tasks.append(RidgeTask(t1=t1, ridge=r, t2=t2, tracker_tid=tid))

    round_counter = {"round": 0}

    # Round-transaction checkpointing, shared by the fault-injected
    # round loop and the supervised process loop: a checkpoint captures
    # everything a round can mutate, and restore() rewinds to it so a
    # failed round attempt leaves no trace (crash consistency).
    def take_checkpoint(frontier: list[RidgeTask]) -> dict:
        return {
            "frontier": list(frontier),
            "created": list(created),
            "support": dict(support),
            "pivots": dict(pivots),
            "rounds": dict(rounds),
            "creator_tid": dict(creator_tid),
            "events": len(events),
            "facets_by_fid": dict(facets_by_fid),
            "alive": {fid: f.alive for fid, f in facets_by_fid.items()},
            "counters": counters.as_dict(),
            "fid_mark": factory.fid_checkpoint(),
            "tracker_mark": tracker.checkpoint(),
            "multimap": M.snapshot(),
        }

    def restore(ckpt: dict) -> list[RidgeTask]:
        created[:] = ckpt["created"]
        support.clear(); support.update(ckpt["support"])
        pivots.clear(); pivots.update(ckpt["pivots"])
        rounds.clear(); rounds.update(ckpt["rounds"])
        creator_tid.clear(); creator_tid.update(ckpt["creator_tid"])
        del events[ckpt["events"]:]
        facets_by_fid.clear(); facets_by_fid.update(ckpt["facets_by_fid"])
        for fid, was_alive in ckpt["alive"].items():
            facets_by_fid[fid].alive = was_alive
        counters.restore(ckpt["counters"])
        factory.fid_rollback(ckpt["fid_mark"])
        tracker.rollback(ckpt["tracker_mark"])
        M.restore(ckpt["multimap"])
        return list(ckpt["frontier"])

    def process(task: RidgeTask) -> Sequence[RidgeTask]:
        t1, r, t2 = task.t1, task.ridge, task.t2
        counters.ridges_processed += 1
        rnd = round_counter["round"]
        b1 = t1.pivot if t1.conflicts.size else _INF
        b2 = t2.pivot if t2.conflicts.size else _INF

        # Case 1: no conflicts on either side -- the ridge is final.
        if b1 == _INF and b2 == _INF:
            events.append(Event(kind="final", round=rnd, ridge=r))
            return ()
        # Case 2: equal pivots -- the pivot buries both facets.
        if b1 == b2:
            t1.alive = False
            t2.alive = False
            counters.facets_buried += 2
            events.append(
                Event(kind="bury", round=rnd, ridge=r,
                      removed_pair=(t1.fid, t2.fid), pivot=int(b1))
            )
            return ()
        # Case 3: symmetry flip (Line 11-12).
        if b2 < b1:
            t1, t2 = t2, t1
            b1, b2 = b2, b1
            counters.flips += 1
        # Case 4: {t1, t2} supports the facet t = r + p with p = min C(t1).
        p = int(b1)
        candidates = FacetFactory.merge_candidates(t1.conflicts, t2.conflicts, above=p)
        t = factory.make(tuple(r | {p}), candidates)
        support[t.fid] = (t1.fid, t2.fid)
        pivots[t.fid] = p
        rounds[t.fid] = rnd
        creator_tid[t.fid] = task.tracker_tid
        created.append(t)
        facets_by_fid[t.fid] = t
        t1.alive = False
        counters.facets_replaced += 1
        events.append(
            Event(kind="create", round=rnd, ridge=r,
                  created=t.fid, removed=t1.fid, pivot=p)
        )

        children: list[RidgeTask] = []
        for r2 in facet_ridges(t.indices):
            if r2 == r:
                # The creation ridge is immediately ready against t2.
                tid = tracker.add_task(
                    cost=len(candidates) + 1,
                    deps=(creator_tid[t.fid], creator_tid[t2.fid]),
                    span_cost=_logcost(len(candidates)),
                )
                children.append(RidgeTask(t1=t, ridge=r2, t2=t2, tracker_tid=tid))
            elif not M.insert_and_set(r2, t):
                t_other = M.get_value(r2, t)
                tid = tracker.add_task(
                    cost=len(candidates) + 1,
                    deps=(creator_tid[t.fid], creator_tid[t_other.fid]),
                    span_cost=_logcost(len(candidates)),
                )
                children.append(
                    RidgeTask(t1=t, ridge=r2, t2=t_other, tracker_tid=tid)
                )
        return children

    def run_rounds() -> ExecutionStats:
        # Run the round loop inline so the trace can stamp each event
        # with its synchronous round number.
        stats = ExecutionStats()
        frontier: list[RidgeTask] = list(initial_tasks)
        rng = getattr(executor, "_rng", None)
        while frontier:
            if rng is not None:
                idx = rng.permutation(len(frontier))
                frontier = [frontier[i] for i in idx]
            stats.rounds += 1
            stats.round_sizes.append(len(frontier))
            nxt: list[RidgeTask] = []
            for task in frontier:
                stats.tasks_executed += 1
                nxt.extend(process(task))
            frontier = nxt
            round_counter["round"] += 1
        return stats

    def run_rounds_chaotic(plan: FaultPlan) -> ExecutionStats:
        # The fault-injected round loop: each round is a transaction.
        # A crash fault kills a ProcessRidge call *after* its work
        # (facet creation, multimap registration, counters) but before
        # its children commit -- at-least-once semantics -- so the round
        # rolls back to its checkpoint and re-executes.  Faults are
        # one-shot per ridge site, which bounds rollbacks by the number
        # of distinct fault sites and guarantees termination.
        stats = ExecutionStats()
        frontier: list[RidgeTask] = list(initial_tasks)
        rng = getattr(executor, "_rng", None)

        def site_of(task: RidgeTask) -> str:
            return "ridge:" + "-".join(str(i) for i in sorted(task.ridge))

        while frontier:
            if rng is not None:
                idx = rng.permutation(len(frontier))
                frontier = [frontier[i] for i in idx]
            ckpt = take_checkpoint(frontier)
            stats.checkpoints += 1
            nxt: list[RidgeTask] = []
            executed_this_attempt = 0
            aborted = False
            for task in frontier:
                site = site_of(task)
                if plan.should_delay(site):
                    stats.tasks_delayed += 1
                    nxt.append(task)  # deferred, not lost: next round
                    continue
                stats.tasks_executed += 1
                executed_this_attempt += 1
                children = process(task)
                if plan.should_crash(site):
                    stats.tasks_aborted += 1
                    aborted = True
                    break
                nxt.extend(children)
            if aborted:
                frontier = restore(ckpt)
                stats.rollbacks += 1
                stats.retries += executed_this_attempt
                continue
            stats.rounds += 1
            stats.round_sizes.append(len(frontier))
            frontier = nxt
            round_counter["round"] += 1
        return stats

    def run_rounds_supervised(pexec: ProcessExecutor) -> ExecutionStats:
        # Round-synchronous execution with the heavy work (conflict
        # merging + visibility sweeps) fanned out to supervised worker
        # processes over shared-memory arrays.  Each round is a
        # three-phase transaction:
        #
        #   A. classify -- pure reads of round-start state decide every
        #      ridge's case and build the case-4 payloads;
        #   B. evaluate -- workers compute conflict sets (faults, kills,
        #      retries, and the process->thread->serial ladder all live
        #      here; no parent state is touched);
        #   C. apply -- the parent replays the exact bookkeeping of
        #      process() in frontier order against a round checkpoint.
        #
        # Because B is pure and C is all-or-nothing, a worker dying
        # mid-round (or the whole pool degrading) can never leave the
        # run half-mutated, and the committed run is bit-identical to
        # the serial RoundExecutor run: same facets, fids, events,
        # counters, and work-span DAG.
        stats = pexec.stats
        arrays = {"pts": pts, "interior": interior}
        rung = {"now": "process"}

        def eval_items(items: list) -> list:
            if not items:
                return []
            n_chunks = max(
                1, min(len(items), pexec.n_workers * pexec.chunks_per_worker)
            )
            bounds = np.linspace(0, len(items), n_chunks + 1).astype(int)
            chunks = [items[bounds[i]:bounds[i + 1]] for i in range(n_chunks)
                      if bounds[i + 1] > bounds[i]]
            if rung["now"] == "process":
                try:
                    if not pexec.started:
                        pexec.start(arrays, _eval_ridge_item)
                    out = pexec.run_round(chunks)
                    return [r for chunk in out for r in chunk]
                except (ChunkQuarantined, ExecutorBrokenError) as exc:
                    rung["now"] = "thread"
                    stats.escalations.append(
                        f"process->thread: {type(exc).__name__}: {exc}"
                    )
                    pexec.close()
            if rung["now"] == "thread":
                try:
                    results: list = [None] * len(chunks)

                    def step(i: int):
                        results[i] = [_eval_ridge_item(arrays, it)
                                      for it in chunks[i]]
                        return ()

                    ThreadExecutor(max(1, pexec.n_workers)).run(
                        list(range(len(chunks))), step
                    )
                    if any(r is None for r in results):
                        raise RuntimeError("thread rung lost a chunk")
                    return [r for chunk in results for r in chunk]
                except Exception as exc:
                    rung["now"] = "serial"
                    stats.escalations.append(
                        f"thread->serial: {type(exc).__name__}: {exc}"
                    )
            return [_eval_ridge_item(arrays, it) for it in items]

        frontier: list[RidgeTask] = list(initial_tasks)
        try:
            while frontier:
                # Phase A: classify.  Conflict arrays are immutable and
                # ready calls touch disjoint support pairs, so reading
                # all of round-start state up front matches serial
                # semantics exactly.
                decisions: list[tuple] = []
                items: list[tuple] = []
                for task in frontier:
                    t1, r, t2 = task.t1, task.ridge, task.t2
                    b1 = t1.pivot if t1.conflicts.size else _INF
                    b2 = t2.pivot if t2.conflicts.size else _INF
                    if b1 == _INF and b2 == _INF:
                        decisions.append(("final", t1, t2, -1, False))
                        continue
                    if b1 == b2:
                        decisions.append(("bury", t1, t2, int(b1), False))
                        continue
                    flipped = b2 < b1
                    if flipped:
                        t1, t2 = t2, t1
                        b1 = b2
                    p = int(b1)
                    items.append(
                        (tuple(sorted(r | {p})), p, t1.conflicts, t2.conflicts)
                    )
                    decisions.append(("create", t1, t2, p, flipped))

                # Phase B: evaluate (pure; all fault handling inside).
                results = eval_items(items)

                # Phase C: apply transactionally.
                ckpt = take_checkpoint(frontier)
                stats.checkpoints += 1
                try:
                    rnd = round_counter["round"]
                    stats.rounds += 1
                    stats.round_sizes.append(len(frontier))
                    nxt: list[RidgeTask] = []
                    k = 0
                    for task, dec in zip(frontier, decisions):
                        stats.tasks_executed += 1
                        counters.ridges_processed += 1
                        kind, t1, t2, p, flipped = dec
                        r = task.ridge
                        if kind == "final":
                            events.append(Event(kind="final", round=rnd, ridge=r))
                            continue
                        if kind == "bury":
                            t1.alive = False
                            t2.alive = False
                            counters.facets_buried += 2
                            events.append(
                                Event(kind="bury", round=rnd, ridge=r,
                                      removed_pair=(t1.fid, t2.fid), pivot=p)
                            )
                            continue
                        if flipped:
                            counters.flips += 1
                        conflicts, n_tests, n_merged = results[k]
                        k += 1
                        t = factory.make_precomputed(
                            tuple(r | {p}), conflicts, n_tests
                        )
                        support[t.fid] = (t1.fid, t2.fid)
                        pivots[t.fid] = p
                        rounds[t.fid] = rnd
                        creator_tid[t.fid] = task.tracker_tid
                        created.append(t)
                        facets_by_fid[t.fid] = t
                        t1.alive = False
                        counters.facets_replaced += 1
                        events.append(
                            Event(kind="create", round=rnd, ridge=r,
                                  created=t.fid, removed=t1.fid, pivot=p)
                        )
                        for r2 in facet_ridges(t.indices):
                            if r2 == r:
                                tid = tracker.add_task(
                                    cost=n_merged + 1,
                                    deps=(creator_tid[t.fid], creator_tid[t2.fid]),
                                    span_cost=_logcost(n_merged),
                                )
                                nxt.append(RidgeTask(
                                    t1=t, ridge=r2, t2=t2, tracker_tid=tid
                                ))
                            elif not M.insert_and_set(r2, t):
                                t_other = M.get_value(r2, t)
                                tid = tracker.add_task(
                                    cost=n_merged + 1,
                                    deps=(creator_tid[t.fid],
                                          creator_tid[t_other.fid]),
                                    span_cost=_logcost(n_merged),
                                )
                                nxt.append(RidgeTask(
                                    t1=t, ridge=r2, t2=t_other, tracker_tid=tid
                                ))
                    frontier = nxt
                    round_counter["round"] += 1
                except BaseException:
                    # Crash consistency: an interrupted apply (e.g.
                    # KeyboardInterrupt) rewinds to the round boundary
                    # before propagating, so no half-applied round is
                    # ever observable.
                    frontier = restore(ckpt)
                    stats.rollbacks += 1
                    raise
        finally:
            pexec.close()
        return stats

    if isinstance(executor, RoundExecutor):
        exec_stats = run_rounds() if fault_plan is None else run_rounds_chaotic(fault_plan)
    elif isinstance(executor, ProcessExecutor):
        if fault_plan is not None and executor.plan is None:
            executor.plan = fault_plan
        exec_stats = run_rounds_supervised(executor)
    else:
        if fault_plan is not None:
            raise ValueError(
                "fault_plan requires a RoundExecutor (checkpoint-resume is "
                "round-synchronous) or a ProcessExecutor (worker-level fault "
                "injection); for thread chaos pass a "
                "repro.runtime.chaos.ChaosThreadExecutor as the executor"
            )
        exec_stats = executor.run(initial_tasks, process)

    exec_stats.kernel_stats = factory.kernel_snapshot()
    alive = sorted((f for f in facets_by_fid.values() if f.alive), key=lambda f: f.fid)
    created_sorted = sorted(created, key=lambda f: f.fid)
    return ParallelHullRun(
        points=pts,
        order=order,
        facets=alive,
        created=created_sorted,
        support=support,
        pivots=pivots,
        rounds=rounds,
        events=events,
        counters=counters,
        exec_stats=exec_stats,
        tracker=tracker,
        interior=interior,
        base_size=base_size,
    )


def space_accounting(run: ParallelHullRun) -> dict:
    """Space usage per the paper's Section 5.2 note: the hash tables and
    conflict sets take space proportional to the work.  Returns the
    measured totals so the claim is checkable."""
    total_conflicts = sum(int(f.conflicts.size) for f in run.created)
    return {
        "facets_created": len(run.created),
        "total_conflict_entries": total_conflicts,
        "visibility_tests": run.counters.visibility_tests,
        # Space proportional to work: conflict entries never exceed the
        # tests that produced them.
        "entries_per_test": total_conflicts / max(1, run.counters.visibility_tests),
    }
