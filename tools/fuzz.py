"""Differential fuzzing harness for the hull implementations.

Random (workload, n, d, seed) instances are run through every hull
implementation in the library -- sequential (Algorithm 2), parallel
(Algorithm 3, random executor), online, point-parallel, quickhull --
and cross-checked against each other, against the structural
validators, and against scipy's Qhull.  Any disagreement prints a
reproducer and exits nonzero.

Each iteration also fuzzes a concurrent-multimap scenario (random
implementation, capacity, hash regime, op count) under random
adversarial schedules **with the happens-before race checker
attached** (:mod:`repro.runtime.racecheck`), so fuzzing reports
races and yield-discipline violations, not just wrong results.

This harness is how the moment-curve predicate-envelope bug was pinned
down (see EXPERIMENTS.md, "honest notes").

``--chaos`` switches to fault-injection fuzzing over random (input,
schedule, fault plan) triples: RoundExecutor runs with random
crash/delay rates must checkpoint-resume to the exact fault-free facet
set, ChaosThreadExecutor runs must survive worker deaths, and random
multimap ops frozen forever at a random yield point must never block
the others (lock-freedom, Theorem A.1/5.5).

``--chaos-proc`` extends the chaos mode across the process boundary:
random (input, fault plan, worker count) triples run on the supervised
:class:`~repro.runtime.procexec.ProcessExecutor` with real worker
processes being SIGKILLed, stalled, and their result messages dropped
or duplicated mid-round -- and every run must still produce the
bit-identical event trace, counters, and work/span DAG of the
fault-free serial execution.

``--degenerate`` fuzzes the adversarial corpus
(:mod:`repro.geometry.degenerate`): every family x random seed must
climb the robust ladder without ever joggling, the resulting
certificate must survive verification while a randomly corrupted copy
must be rejected, and the SoS hull must be *canonical* -- serial,
round-synchronous and free-threaded executions of the same insertion
order must produce the identical facet set over original indices.

``--kernels`` fuzzes the batched predicate kernels
(:mod:`repro.geometry.kernels`) over random (input, dimension,
filter-threshold) triples: SoA hulls (``soa_hull``, the flat
``visible_flat`` sweep) under a randomly inflated float-filter
envelope must stay facet- and counter-identical to the scalar oracle,
and sampled ``orient_batch`` blocks must agree elementwise with scalar
``orient``.

``--effects`` mutation-fuzzes the static effect analyzer
(:mod:`repro.analyze`): random structural mutations of seed programs
(line deletion/duplication/swaps, spliced statements, truncation,
reindentation) must never crash ``analyze_paths`` -- syntax errors
must surface as RPREFF999 pseudo-findings and every finding must
format and JSON round-trip.

``--hotpath`` applies the same mutation engine to the vectorization
hot-path analyzer (:mod:`repro.analyze.hotpath`): mutated NumPy kernel
sketches -- with mangled shape annotations, dangling noqa comments and
broken kernel= entries -- must never crash ``analyze_hotpaths``, and
syntax errors must surface as RPRHOT999 pseudo-findings.

Run:  python tools/fuzz.py [--iterations N] [--seed S] [--verbose]
      python tools/fuzz.py --chaos [--duration SECS]
      python tools/fuzz.py --chaos-proc [--duration SECS]
      python tools/fuzz.py --degenerate [--duration SECS]
      python tools/fuzz.py --kernels [--duration SECS]
      python tools/fuzz.py --effects [--iterations N]
      python tools/fuzz.py --hotpath [--iterations N]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
from scipy.spatial import ConvexHull as ScipyHull

from repro.baselines import quickhull
from repro.geometry import (
    anisotropic,
    gaussian,
    moment_curve,
    on_sphere,
    two_clusters,
    uniform_ball,
    uniform_cube,
)
from repro.hull import (
    facet_sets_global,
    parallel_hull,
    point_parallel_hull,
    sequential_hull,
    soa_hull,
    validate_hull,
)
from repro.hull.online import OnlineHull
from repro.runtime import (
    CASMultimap,
    RoundExecutor,
    SerialExecutor,
    TASMultimap,
    ThreadExecutor,
)
from repro.runtime.chaos import chaos_hull_roundtrip, sweep_stalled_multimap
from repro.runtime.racecheck import RaceChecker, multimap_scenario

GENERATORS = [
    ("ball", uniform_ball, (2, 3, 4)),
    ("cube", uniform_cube, (2, 3, 4)),
    ("sphere", on_sphere, (2, 3)),
    ("gaussian", gaussian, (2, 3)),
    ("anisotropic", anisotropic, (2, 3)),
    ("two_clusters", two_clusters, (2, 3)),
    ("moment_curve", moment_curve, (2, 3, 4)),
]


def one_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Run one random instance through everything; returns an error
    description or None."""
    name, gen, dims = GENERATORS[int(rng.integers(0, len(GENERATORS)))]
    d = int(rng.choice(dims))
    n = int(rng.integers(d + 2, 120 if d < 4 else 60))
    seed = int(rng.integers(0, 2**31))
    label = f"{name}(n={n}, d={d}, seed={seed})"
    if verbose:
        print(f"  {label}")
    pts = gen(n, d, seed=seed)
    order = np.random.default_rng(seed + 1).permutation(n)
    executors = [SerialExecutor(), RoundExecutor(), RoundExecutor(seed=seed % 97)]
    mm = "dict"
    if seed % 5 == 0:
        executors.append(ThreadExecutor(2))

    try:
        seq = sequential_hull(pts, order=order.copy())
        validate_hull(seq.facets, seq.points)
        ref = facet_sets_global(seq.facets, seq.order)

        for ex in executors:
            mm_used = "cas" if isinstance(ex, ThreadExecutor) else mm
            par = parallel_hull(pts, order=order.copy(), executor=ex, multimap=mm_used)
            validate_hull(par.facets, par.points)
            if facet_sets_global(par.facets, par.order) != ref:
                return f"{label}: parallel[{type(ex).__name__}] differs from sequential"
            if not isinstance(ex, ThreadExecutor):
                if par.created_keys() != seq.created_keys():
                    return f"{label}: created-facet multiset differs"

        pp = point_parallel_hull(pts, order=order.copy())
        if facet_sets_global(pp.facets, pp.order) != ref:
            return f"{label}: point-parallel differs"

        oh = OnlineHull(d)
        oh.extend(pts)
        if facet_sets_global(oh.facets, np.arange(n)) != ref:
            return f"{label}: online differs"

        qh = quickhull(pts)
        if facet_sets_global(qh.facets, qh.order) != ref:
            return f"{label}: quickhull differs"

        scipy_verts = set(ScipyHull(pts).vertices.tolist())
        our_verts = {int(seq.order[i]) for i in seq.vertex_ranks()}
        if our_verts != scipy_verts:
            return f"{label}: vertex set differs from scipy"
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return f"{label}: exception {type(exc).__name__}: {exc}"
    return None


def one_multimap_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Race-check one random multimap scenario under random schedules;
    returns an error description or None."""
    cls = [CASMultimap, TASMultimap][int(rng.integers(0, 2))]
    n_ops = int(rng.integers(2, 4))
    # Linear-probing invariant: pass 2 of Algorithm 5 terminates at the
    # first never-taken slot, so the table must keep one slot free.
    capacity = int(rng.integers(n_ops + 1, 9))
    collide = bool(rng.integers(0, 2))
    names = [chr(ord("p") + i) for i in range(n_ops)]
    n_schedules = 20
    sched_len = int(rng.integers(4, 14))
    label = (f"{cls.__name__}(capacity={capacity}, collide={collide}, "
             f"ops={n_ops}, len={sched_len})")
    if verbose:
        print(f"  {label}")
    checker = RaceChecker()
    try:
        for _ in range(n_schedules):
            schedule = [names[int(j)] for j in rng.integers(0, n_ops, size=sched_len)]
            kwargs = {"hash_fn": (lambda k: 0)} if collide else {}
            m = cls(capacity, **kwargs)
            report = checker.run(multimap_scenario(m, n_ops=n_ops), schedule)
            if not report.ok:
                return f"{label}: {report.describe()}"
            winners = sorted(
                v for k, v in report.results.items() if k in ("p", "q")
            )
            if winners != [False, True]:
                return f"{label}: A.1 violated on {schedule}: {report.results}"
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return f"{label}: exception {type(exc).__name__}: {exc}"
    return None


def one_chaos_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Fuzz one random (input, schedule, fault plan) triple; returns an
    error description or None."""
    kind = int(rng.integers(0, 3))
    try:
        if kind == 0:
            # Checkpoint-resume roundtrip: random input + fault rates.
            workload = ["ball", "cube", "sphere", "gaussian"][int(rng.integers(0, 4))]
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d + 5, 90))
            seed = int(rng.integers(0, 2**31))
            crash = float(rng.uniform(0.0, 0.5))
            delay = float(rng.uniform(0.0, 0.3))
            label = (f"roundtrip[{workload}](n={n}, d={d}, seed={seed}, "
                     f"crash={crash:.2f}, delay={delay:.2f})")
            if verbose:
                print(f"  {label}")
            rep = chaos_hull_roundtrip(
                n=n, d=d, seed=seed, crash_rate=crash, delay_rate=delay,
                workload=workload, executor_kind="rounds",
            )
            if not rep["ok"]:
                return f"{label}: facet set diverged after rollback ({rep})"
        elif kind == 1:
            # Worker-death roundtrip under the chaos thread executor.
            seed = int(rng.integers(0, 2**31))
            n = int(rng.integers(20, 70))
            crash = float(rng.uniform(0.0, 0.3))
            label = f"threads(n={n}, seed={seed}, crash={crash:.2f})"
            if verbose:
                print(f"  {label}")
            rep = chaos_hull_roundtrip(
                n=n, d=2, seed=seed, crash_rate=crash,
                executor_kind="threads", n_workers=int(rng.integers(2, 5)),
            )
            if not rep["ok"]:
                return f"{label}: facet set diverged after worker deaths ({rep})"
        else:
            # Lock-freedom: random stalled-op sweep (smaller prefix than
            # the exhaustive CI sweep; the randomness is in the knobs).
            impl = ["cas", "tas"][int(rng.integers(0, 2))]
            capacity = int(rng.integers(3, 7))
            n_ops = int(rng.integers(2, 4))
            collide = bool(rng.integers(0, 2))
            label = (f"stall[{impl}](capacity={capacity}, ops={n_ops}, "
                     f"collide={collide})")
            if verbose:
                print(f"  {label}")
            summary = sweep_stalled_multimap(
                impl, capacity=capacity, prefix_len=4 if n_ops > 2 else 5,
                n_ops=n_ops, collide=collide, max_stall=6,
            )
            if not summary.ok:
                return f"{label}: {summary.describe()}"
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return f"chaos case {kind}: exception {type(exc).__name__}: {exc}"
    return None


def one_chaos_proc_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Fuzz one random (input, fault plan, worker count) triple through
    the supervised process executor; returns an error description or
    None.  Inputs stay small: each case spawns real OS processes and
    SIGKILLs a fair fraction of them, so the cost per iteration is
    dominated by respawns, not geometry."""
    workload = ["ball", "cube", "sphere", "gaussian"][int(rng.integers(0, 4))]
    d = int(rng.integers(2, 4))
    n = int(rng.integers(d + 5, 48))
    seed = int(rng.integers(0, 2**31))
    n_workers = int(rng.integers(2, 5))
    # One dominant fault kind per case plus a light mix, so each
    # iteration stresses a specific supervision path (reap/respawn,
    # stall-detection, dedup, requeue) instead of a grey average.
    rates = {"kill_rate": 0.0, "stall_rate": 0.0, "drop_rate": 0.0,
             "dup_rate": 0.0, "delay_rate": 0.0}
    dominant = list(rates)[int(rng.integers(0, len(rates)))]
    rates[dominant] = float(rng.uniform(0.15, 0.4))
    for k in rates:
        if k != dominant and rng.integers(0, 3) == 0:
            rates[k] = float(rng.uniform(0.0, 0.1))
    label = (f"procs[{workload}](n={n}, d={d}, seed={seed}, P={n_workers}, "
             + ", ".join(f"{k.split('_')[0]}={v:.2f}"
                         for k, v in rates.items() if v) + ")")
    if verbose:
        print(f"  {label}")
    try:
        rep = chaos_hull_roundtrip(
            n=n, d=d, seed=seed, workload=workload,
            executor_kind="procs", n_workers=n_workers, **rates,
        )
        if not rep["ok"]:
            return f"{label}: facet set diverged under process faults ({rep})"
        if not rep.get("trace_identical", False):
            return f"{label}: event trace / work-span DAG diverged ({rep})"
        from repro.runtime.procexec import active_segments
        leaked = active_segments()
        if leaked:
            return f"{label}: leaked shared-memory segments {sorted(leaked)}"
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return f"{label}: exception {type(exc).__name__}: {exc}"
    return None


def one_degenerate_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Fuzz one (family, seed) pair from the adversarial degenerate
    corpus; returns an error description or None."""
    from repro.geometry.degenerate import CORPUS
    from repro.geometry.perturb import sos_mode
    from repro.hull import robust_hull
    from repro.hull.certify import (
        CORRUPTION_MODES,
        CertificateError,
        corrupt_certificate,
        verify_certificate,
    )

    names = list(CORPUS)
    name = names[int(rng.integers(0, len(names)))]
    family = CORPUS[name]
    seed = int(rng.integers(0, 2**31))
    label = f"degenerate[{name}](seed={seed})"
    if verbose:
        print(f"  {label}")
    pts = family(seed)
    try:
        res = robust_hull(pts, seed=seed)
        if res.mode == "joggle":
            return f"{label}: reached joggle ({res.escalations})"
        if not family.full_dim and res.mode != "sos":
            return f"{label}: expected sos rung, got {res.mode}"
        # The verifier must reject a corrupted copy of the (verified)
        # certificate robust_hull just produced.
        mode = CORRUPTION_MODES[int(rng.integers(0, len(CORRUPTION_MODES)))]
        corrupted = corrupt_certificate(res.certificate, mode, seed=seed)
        try:
            verify_certificate(corrupted, pts)
            return f"{label}: corrupted certificate ({mode}) was accepted"
        except CertificateError:
            pass
        # Canonical SoS hull: all execution disciplines must agree on
        # the facet set (over original indices) for one insertion order.
        n = len(pts)
        order = np.random.default_rng(seed + 1).permutation(n)
        with sos_mode():
            ref = None
            for ex, mm in (
                (SerialExecutor(), "dict"),
                (RoundExecutor(), "dict"),
                (ThreadExecutor(2), "cas"),
            ):
                run = parallel_hull(pts, order=order.copy(), executor=ex, multimap=mm)
                validate_hull(run.facets, run.points)
                fs = facet_sets_global(run.facets, run.order)
                if ref is None:
                    ref = fs
                elif fs != ref:
                    return (f"{label}: SoS facet set differs under "
                            f"{type(ex).__name__}")
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return f"{label}: exception {type(exc).__name__}: {exc}"
    return None


def one_kernel_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Fuzz one (input, dimension, filter-threshold) triple through the
    batched kernels; returns an error description or None."""
    from repro.geometry.kernels import filter_scale, orient_batch
    from repro.geometry.predicates import orient

    name, gen, dims = GENERATORS[int(rng.integers(0, len(GENERATORS)))]
    d = int(rng.choice(dims))
    n = int(rng.integers(d + 2, 100 if d < 4 else 50))
    seed = int(rng.integers(0, 2**31))
    # Random envelope inflation (1x .. 1000x): fallbacks may only grow,
    # results may never change.
    env_scale = float(10.0 ** rng.uniform(0.0, 3.0))
    label = f"kernels[{name}](n={n}, d={d}, seed={seed}, env={env_scale:.1f}x)"
    if verbose:
        print(f"  {label}")
    pts = gen(n, d, seed=seed)
    order = np.random.default_rng(seed + 1).permutation(n)
    try:
        seq = sequential_hull(pts, order=order.copy())
        with filter_scale(env_scale):
            soa = soa_hull(pts, order=order.copy())
            if soa.facet_keys() != seq.facet_keys():
                return f"{label}: soa facets differ from the scalar oracle"
            if soa.created_keys() != seq.created_keys():
                return f"{label}: soa created facets differ from the scalar oracle"
            for key in ("visibility_tests", "facets_created"):
                got, want = getattr(soa.counters, key), getattr(seq.counters, key)
                if got != want:
                    return f"{label}: {key} differs: soa {got} vs scalar {want}"
            validate_hull(soa.facets, soa.points)

            # Predicate-level sample: a random block must agree sign-for-
            # sign with the scalar oracle under the inflated envelope.
            k = min(n - d, 6)
            rows = np.stack([rng.choice(n, size=d, replace=False) for _ in range(k)])
            simplices = pts[rows]
            queries = pts[rng.choice(n, size=min(n, 12), replace=False)]
            got = orient_batch(simplices, queries)
            for f in range(simplices.shape[0]):
                for q in range(queries.shape[0]):
                    want = orient(simplices[f], queries[q])
                    if got[f, q] != want:
                        return (f"{label}: orient_batch[{f},{q}] = {got[f, q]} "
                                f"!= orient {want}")
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return f"{label}: exception {type(exc).__name__}: {exc}"
    return None


def one_noisy_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Fuzz one (input, p, votes, noise-seed) tuple through the noisy
    oracle; returns an error description or None.

    Three claims per case: p=0 is bit-identical to the unwrapped
    kernel; a given noise seed is exactly reproducible; and the
    certificate-gated ladder always lands on the exact oracle's hull.
    """
    from repro.geometry.noisy import NoisyKernel
    from repro.hull.robust import robust_hull

    name, gen, dims = GENERATORS[int(rng.integers(0, len(GENERATORS)))]
    d = int(rng.choice(dims))
    n = int(rng.integers(d + 2, 80 if d < 4 else 40))
    seed = int(rng.integers(0, 2**31))
    nseed = int(rng.integers(0, 2**31))
    p = float(rng.choice([0.001, 0.01, 0.05, 0.1]))
    votes = [1, 3, 5, "adaptive"][int(rng.integers(0, 4))]
    label = (f"noisy[{name}](n={n}, d={d}, seed={seed}, p={p}, "
             f"votes={votes}, nseed={nseed})")
    if verbose:
        print(f"  {label}")
    pts = gen(n, d, seed=seed)
    order = np.random.default_rng(seed + 1).permutation(n)
    try:
        ref = sequential_hull(pts, order=order.copy())
        ref_keys = facet_sets_global(ref.facets, ref.order)

        # p=0: the wrapper must be a bit-identical no-op.
        zero = sequential_hull(
            pts, order=order.copy(),
            kernel=NoisyKernel(p=0.0, votes=votes, seed=nseed),
        )
        if facet_sets_global(zero.facets, zero.order) != ref_keys:
            return f"{label}: p=0 noisy differs from unwrapped"
        if zero.counters.as_dict() != ref.counters.as_dict():
            return f"{label}: p=0 counters differ"

        # Determinism: one noise seed, one outcome (crash type counts
        # as an outcome -- a lying oracle may break invariants).
        def raw_outcome():
            nk = NoisyKernel(p=p, votes=votes, seed=nseed)
            try:
                run = sequential_hull(pts, order=order.copy(), kernel=nk)
            except Exception as exc:  # noqa: BLE001 - fuzzing surface
                return ("crash", type(exc).__name__)
            return ("ok", facet_sets_global(run.facets, run.order))

        if raw_outcome() != raw_outcome():
            return f"{label}: same noise seed gave two different outcomes"

        # Self-healing: the ladder must land on the exact oracle's hull
        # and record how it got there.
        nk = NoisyKernel(p=p, votes=votes, seed=nseed)
        res = robust_hull(pts, seed=seed, order=order.copy(), noise=nk)
        exact = robust_hull(pts, seed=seed, order=order.copy())
        # Compare in global-index space: different surviving rungs may
        # promote/rank points differently for the same geometric hull.
        if (facet_sets_global(res.run.facets, res.run.order)
                != facet_sets_global(exact.run.facets, exact.run.order)):
            return (f"{label}: ladder hull differs from exact oracle "
                    f"(path {res.escalations})")
        if not res.escalations or not res.escalations[-1].endswith(
            (":ok", "]")
        ):
            return f"{label}: escalation path not recorded: {res.escalations}"
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return f"{label}: exception {type(exc).__name__}: {exc}"
    return None


# Seed programs for --effects: small concurrent-container sketches in
# the analyzer's input language (bare-name primitives, tagged yields).
# Mutations knock these around; the analyzer must never crash on any
# of the resulting (usually ill-typed, often ill-formed) programs.
EFFECT_SEEDS = [
    '''
class AtomicCell:
    pass

class Mutex:
    pass

class Table:
    def __init__(self, n):
        self._mutex = Mutex()
        self._cells = [AtomicCell() for _ in range(n)]
        self._count = 0

    def step_gen(self, i):
        yield ("cas", i)
        ok = self._cells[i].compare_and_swap(None, 1)
        yield ("read", i)
        return ok, self._cells[i].load()

    def bump(self):
        with self._mutex:
            self._count += 1
''',
    '''
class AtomicFlag:
    pass

class _Slot:
    def __init__(self):
        self.taken = AtomicFlag()
        self.data = None

class Table:
    def __init__(self, n):
        self._slots = [_Slot() for _ in range(n)]

    def step_gen(self, i, v):
        yield ("tas", i)
        ok = self._slots[i].taken.test_and_set()
        yield ("write", i)
        self._slots[i].data = v
        return ok

    def _publish(self, slot, v):
        slot.data = v
''',
]

_EFFECT_TOKENS = [
    "yield ('cas', i)", "self._count += 1", "self._cells[i].load()",
    "with self._mutex:", "return", "pass", "getattr(self, name)()",
    "eval('1')", "del self._cells[i]", "lambda k: 0", "global _count",
]


def _mutate_source(src: str, rng: np.random.Generator,
                   tokens: list[str] = _EFFECT_TOKENS) -> str:
    """One random structural mutation of a source string."""
    lines = src.split("\n")
    op = int(rng.integers(0, 6))
    if not lines:
        return src
    i = int(rng.integers(0, len(lines)))
    if op == 0:  # delete a line
        del lines[i]
    elif op == 1:  # duplicate a line
        lines.insert(i, lines[i])
    elif op == 2:  # swap two lines
        j = int(rng.integers(0, len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:  # splice in a random statement at a random indent
        indent = " " * int(rng.integers(0, 3)) * 4
        tok = tokens[int(rng.integers(0, len(tokens)))]
        lines.insert(i, indent + tok)
    elif op == 4:  # truncate the file
        lines = lines[:i]
    else:  # reindent a line
        lines[i] = " " * int(rng.integers(0, 9)) + lines[i].lstrip()
    return "\n".join(lines)


# Seed programs for --hotpath: small NumPy kernel sketches in the
# hot-path analyzer's input language (kernel= entries, shape
# annotations, per-element loops, noqa comments).  Mutations produce
# ill-formed shape claims, dangling annotations, and broken hot-region
# edges; the analyzer must never crash on any of them.
HOTPATH_SEEDS = [
    '''
import numpy as np

def orient_rows(simplices, queries):
    # repro: shape: simplices=(F,d,d):float64, queries=(Q,d):float64
    return np.einsum("fij,qj->fq", simplices, queries)

def driver(points, kernel="batch"):
    facets = []
    for i in range(len(points)):
        row = orient_rows(points[i], points)
        facets.append(row)
    return np.stack(facets)
''',
    '''
import numpy as np

def side(plane, point):
    acc = 0.0
    for j in range(len(point)):
        acc += plane[j] * point[j]
    return acc

def sweep(planes, pts, kernel="batch"):
    out = np.zeros((len(planes), len(pts)))
    for f in range(len(planes)):
        for q in range(len(pts)):
            out[f, q] = side(planes[f], pts[q])
    return out
''',
]

_HOTPATH_TOKENS = [
    "x = np.zeros((F, d))", "rows.append(row)", "# repro: shape: z=(N,):float64",
    "# repro: noqa: RPRHOT001", "# repro: hot-entry", "y = np.array(v, dtype=object)",
    "z = np.einsum('ij,jk->ik', a, b)", "kernel = 'batch'", "return np.stack(rows)",
    "for facet in facets:", "del rows", "w = a + b",
]


def one_hotpath_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Fuzz the hot-path analyzer: random mutations of seed kernels
    must never crash shape inference or the hot-region walk, and the
    output must stay well-formed (findings format and JSON round-trip;
    syntax errors surface as RPRHOT999 pseudo-findings)."""
    from repro.analyze import Finding
    from repro.analyze.hotpath import analyze_hotpaths, render_hot_text

    seed_ix = int(rng.integers(0, len(HOTPATH_SEEDS)))
    src = HOTPATH_SEEDS[seed_ix]
    tokens = _HOTPATH_TOKENS
    n_mut = int(rng.integers(1, 8))
    for _ in range(n_mut):
        src = _mutate_source(src, rng, tokens=tokens)
    label = f"hotpath[seed={seed_ix}, mutations={n_mut}]"
    if verbose:
        print(f"  {label}")
    try:
        result = analyze_hotpaths([], sources={"fuzz_mutant.py": src})
        for f in result.findings + result.suppressed:
            assert f.format()
            assert Finding.from_dict(f.as_dict()) == f
        for chain in result.hot.values():
            assert isinstance(chain, str)
        assert isinstance(render_hot_text(result), str)
        assert len(result.suppressions()) >= 0
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return (f"{label}: analyzer crashed with "
                f"{type(exc).__name__}: {exc}\n--- mutant ---\n{src}")
    return None


# Seed programs for --fpcheck: annotated kernel sketches in the
# fp-filter analyzer's input language (fp-bound clause blocks, claims,
# guards, envelopes).  Mutations produce mangled clause grammar,
# orphaned claims, contradictory pins, and broken arithmetic; the
# analyzer must degrade to RPRFP999 findings, never crash.
FPCHECK_SEEDS = [
    '''
import numpy as np

def planes(simplices):
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: in simplices ~ S
    # repro: fp-bound: fact NRM <= 6*H
    # repro: fp-bound: out normals ~ NRM err 6*H
    p0 = simplices[:, :1, :]
    # repro: fp-bound: bind p0 ~ B
    edges = simplices[:, 1:, :] - p0
    # repro: fp-bound: bind edges ~ R0
    normals = np.cross(edges[:, 0, :], edges[:, 1, :])
    # repro: fp-bound: bind normals ~ NRM
    offsets = np.einsum("fd,fd->f", normals, p0[:, 0, :])
    # repro: fp-bound: claim offsets <= 6*d*H*B + 2*d^2*NRM*B
    return normals, offsets
''',
    '''
def decide(margin, env, scale):
    # repro: fp-bound: in margin ~ M err 3*M
    # repro: fp-bound: guard env
    # repro: fp-bound: envelope env scale
    env = env * 2.0
    if abs(margin) > env:
        if margin > 0.0:
            return 1
        return -1
    return 0
''',
]

_FPCHECK_TOKENS = [
    "# repro: fp-bound: claim x <= 3*H", "# repro: fp-bound: in q ~ Q",
    "# repro: fp-bound: fact NRM <= 6*H", "# repro: fp-bound: guard env",
    "# repro: fp-bound: assume d in 2..3", "# repro: fp-bound: envelope env",
    "# repro: fp-bound: bind z ~", "# repro: fp-bound: claim <= H",
    "# repro: fp-bound: fact 2*X <=", "# repro: fp-bound: assume d in 9..2",
    "# repro: fp-bound: wibble q r", "# repro: fp-bound: out y ~ Y err 6*",
    "env = env * 0.5", "margins = margins - offs", "x = a @ b",
    "# repro: noqa: RPRFP002", "return margin > 0.0",
]


def one_fpcheck_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Fuzz the fp-filter analyzer: random mutations of annotated
    kernel sketches -- including mangled ``fp-bound:`` clause tokens --
    must never crash the error-domain walk, and the output must stay
    well-formed (findings format and JSON round-trip; grammar damage
    surfaces as RPRFP999 pseudo-findings, not exceptions)."""
    from repro.analyze import Finding
    from repro.analyze.fpcheck import analyze_fpcheck, render_fp_text

    seed_ix = int(rng.integers(0, len(FPCHECK_SEEDS)))
    src = FPCHECK_SEEDS[seed_ix]
    n_mut = int(rng.integers(1, 8))
    for _ in range(n_mut):
        src = _mutate_source(src, rng, tokens=_FPCHECK_TOKENS)
    label = f"fpcheck[seed={seed_ix}, mutations={n_mut}]"
    if verbose:
        print(f"  {label}")
    try:
        result = analyze_fpcheck([], sources={"fuzz_mutant.py": src})
        for f in result.findings + result.suppressed:
            assert f.format()
            assert Finding.from_dict(f.as_dict()) == f
        for c in result.claims:
            assert isinstance(c.ok, bool) and c.line >= 1
        assert isinstance(render_fp_text(result, verbose=True), str)
        assert len(result.suppressions()) >= 0
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return (f"{label}: analyzer crashed with "
                f"{type(exc).__name__}: {exc}\n--- mutant ---\n{src}")
    return None


def one_effects_case(rng: np.random.Generator, verbose: bool) -> str | None:
    """Fuzz the static effect analyzer: random mutations of seed
    programs must never crash it, and its output must stay well-formed
    (every finding formats and JSON round-trips; syntax errors surface
    as RPREFF999 pseudo-findings, not exceptions)."""
    from repro.analyze import Finding, analyze_paths

    seed_ix = int(rng.integers(0, len(EFFECT_SEEDS)))
    src = EFFECT_SEEDS[seed_ix]
    n_mut = int(rng.integers(1, 8))
    for _ in range(n_mut):
        src = _mutate_source(src, rng)
    label = f"effects[seed={seed_ix}, mutations={n_mut}]"
    if verbose:
        print(f"  {label}")
    try:
        result = analyze_paths([], sources={"fuzz_mutant.py": src})
        for f in result.findings + result.suppressed:
            assert f.format()
            assert Finding.from_dict(f.as_dict()) == f
        # the site inventory must be enumerable too
        for s in result.sites():
            assert s.as_dict()["line"] >= 1
    except Exception as exc:  # noqa: BLE001 - fuzzing surface
        return (f"{label}: analyzer crashed with "
                f"{type(exc).__name__}: {exc}\n--- mutant ---\n{src}")
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iterations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("--chaos", action="store_true",
                    help="fuzz (input, schedule, fault plan) triples instead")
    ap.add_argument("--chaos-proc", action="store_true",
                    help="fuzz the supervised process executor with "
                         "random (input, fault plan, worker count) triples")
    ap.add_argument("--degenerate", action="store_true",
                    help="fuzz the adversarial degenerate corpus instead")
    ap.add_argument("--kernels", action="store_true",
                    help="fuzz the batched predicate kernels instead")
    ap.add_argument("--noisy", action="store_true",
                    help="fuzz the noisy-oracle ladder with random "
                         "(input, p, votes, seed) tuples instead")
    ap.add_argument("--effects", action="store_true",
                    help="fuzz the static effect analyzer on mutated "
                         "fixture programs instead")
    ap.add_argument("--hotpath", action="store_true",
                    help="fuzz the vectorization hot-path analyzer on "
                         "mutated kernel sketches instead")
    ap.add_argument("--fpcheck", action="store_true",
                    help="fuzz the fp-filter-soundness analyzer on "
                         "mutated annotated kernel sketches instead")
    ap.add_argument("--duration", type=float, default=None, metavar="SECS",
                    help="run until the wall-clock budget expires "
                         "(overrides --iterations)")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    if args.chaos:
        cases = (one_chaos_case,)
    elif args.chaos_proc:
        cases = (one_chaos_proc_case,)
    elif args.degenerate:
        cases = (one_degenerate_case,)
    elif args.kernels:
        cases = (one_kernel_case,)
    elif args.noisy:
        cases = (one_noisy_case,)
    elif args.effects:
        cases = (one_effects_case,)
    elif args.hotpath:
        cases = (one_hotpath_case,)
    elif args.fpcheck:
        cases = (one_fpcheck_case,)
    else:
        cases = (one_case, one_multimap_case)
    deadline = None if args.duration is None else time.monotonic() + args.duration
    failures = 0
    i = 0
    while True:
        if deadline is None:
            if i >= args.iterations:
                break
        elif time.monotonic() >= deadline:
            break
        for case in cases:
            err = case(rng, args.verbose)
            if err is not None:
                print(f"FAIL [{i}]: {err}")
                failures += 1
        i += 1
        if i % 20 == 0 and not args.verbose and not failures:
            print(f"  ... {i} iterations ok")
    kind = ("chaos" if args.chaos
            else "chaos-proc" if args.chaos_proc
            else "degenerate" if args.degenerate
            else "kernels" if args.kernels
            else "noisy" if args.noisy
            else "effects" if args.effects
            else "hotpath" if args.hotpath
            else "fpcheck" if args.fpcheck else "differential")
    if failures:
        print(f"{failures} failing cases out of {i} {kind} iterations")
        return 1
    print(f"all {i} {kind} iterations agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
