"""The repository benchmark: hull workloads end to end, and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ball3d --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

``--trace 0`` times the operation with nothing wrapped and reports the
end-to-end metrics: ``wall_s`` (median time to a hull that then passes
its reference check), ``peak_rss_mb`` (median over operations of this
process's peak resident set during one operation; the process runs only
this workload and the host-speed controls, so the figure includes SciPy,
~30 MB) and ``setup_s`` (median cold import of the workload's ``repro``
modules in fresh processes).  Input generation is outside all three.
The two times are corrected for the shared host's speed by controls
that run no ``repro`` code (``CONTROLS``, :func:`measure_setup`).
``--trace 1`` hulls each input untraced and then traced, back to back,
and reports the per-layer metrics from the spans (``spans.py``).

Every result is checked against a reference outside the timed region; a
failed check or a raised error counts as a failed operation and makes
the exit code 1.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with a machine fingerprint, and the Chrome trace go to
``perfbench-out/``.  ``--workload all`` runs every workload, each in a
fresh process.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

WORKLOAD_NAMES = ("ball3d", "sphere3d", "certified3d", "grid3d")
SETUP_REPEATS = 5
MIN_OPS = 3
#: Medians of :func:`interpreter_probe`, :func:`qhull_probe` and a cold
#: ``import numpy`` on the reference machine (2-core Intel Xeon, Python
#: 3.11, NumPy 2.4, SciPy 1.17) with little other load on the host.
PROBE_REFERENCE_S = 0.01
QHULL_REFERENCE_S = 0.04
NUMPY_IMPORT_REFERENCE_S = 0.11
#: Powers of the host-speed controls in ``wall_s``: the reported time is
#: the raw median x the product over controls of (reference / the run's
#: median control) ** power, a control variate with fixed coefficients.
#: The powers are least-squares slopes of log op time on log control time
#: over runs of ~24 s during minutes of host drift, pooled over the four
#: workloads (the slopes per workload: probe 0.1-0.5, Qhull 0.45-0.9).
#: Either control alone, at power 1, did far less.  Correcting each
#: operation by the controls sampled just before it did no better: one
#: probe and two Qhull runs are a noisy sample when the host is steady.
CONTROLS = {"probe": (PROBE_REFERENCE_S, 0.3), "qhull": (QHULL_REFERENCE_S, 0.5)}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "kernels.visible_flat_s": "s",
    "kernels.visible_flat_ns_per_test": "ns",
    "kernels.batch_planes_s": "s",
    "kernels.gather_segments_s": "s",
    "kernels.fallback_rate": "ratio",
    "kernels.sweep_bytes_computed": "bytes",
    "hyperplane.side_exact_s": "s",
    "hyperplane.side_exact_calls": "count",
    "hyperplane.us_per_fallback": "us",
    "hyperplane.through_s": "s",
    "soa.init_s": "s",
    "soa.step_round_self_s": "s",
    "soa.pair_ridges_s": "s",
    "soa.finish_s": "s",
    "soa.rounds": "count",
    "soa.visibility_tests": "count",
    "soa.facets_created": "count",
    "soa.dedupe_keep_ratio": "ratio",
    "soa.conflict_survival": "ratio",
    "soa.pool_capacity_bytes": "bytes",
    "parallel.adapt_s": "s",
    "validate.validate_hull_s": "s",
    "certify.make_certificate_s": "s",
    "certify.verify_certificate_s": "s",
    "robust.attempts": "count",
    "robust.ladder_self_s": "s",
    "process.cpu_per_wall": "ratio",
    "bench.probe_s": "s",
    "bench.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Exact counts that must repeat across operations on one input and
#: between its untraced and traced runs.
COUNT_KEYS = ("rounds", "visibility_tests", "facets_created", "fallbacks",
              "batched_signs", "attempts")


def _sweep_attrs(args, mask) -> dict:
    # Computed bytes of the flat sweep, per tested entry: the int64 rank
    # and owner, the gathered float64 point row (d) and packed plane row
    # (d + 3), the margin, bound and envelope, and two bool masks.
    m, d = int(args["ranks"].shape[0]), int(args["pts"].shape[1])
    return {"tests": m, "bytes": m * (8 * (2 * d + 8) + 2)}


def _pool_attrs(args, run) -> dict:
    pool = args["self"].pool
    return {"pool_entries": int(pool.end), "pool_bytes": int(pool.buf.nbytes)}


#: (module, attribute path, span name, attrs) of every wrapped call.
WRAP_TARGETS = (
    ("repro.hull.soa", "batch_planes", "kernels.batch_planes", None),
    ("repro.hull.soa", "gather_segments", "kernels.gather_segments",
     lambda args, res: {"entries": int(res[0].shape[0])}),
    ("repro.hull.soa", "visible_flat", "kernels.visible_flat", _sweep_attrs),
    ("repro.hull.soa", "SoAHullEngine.__init__", "soa.init", None),
    ("repro.hull.soa", "SoAHullEngine.step_round", "soa.step_round", None),
    ("repro.hull.soa", "SoAHullEngine._pair_ridges", "soa.pair_ridges", None),
    ("repro.hull.soa", "SoAHullEngine._through_row", "hyperplane.through", None),
    ("repro.hull.soa", "SoAHullEngine.finish", "soa.finish", _pool_attrs),
    ("repro.geometry.hyperplane", "Hyperplane._side_exact", "hyperplane.side_exact", None),
    ("repro.hull.robust", "parallel_hull", "parallel.parallel_hull", None),
    ("repro.hull.robust", "validate_hull", "validate.validate_hull", None),
    ("repro.hull.robust", "make_certificate", "certify.make_certificate", None),
    ("repro.hull.robust", "verify_certificate", "certify.verify_certificate", None),
)

#: Self time of these spans -> per-layer metric (seconds).
SELF_TIME_METRICS = {
    "kernels.visible_flat": "kernels.visible_flat_s",
    "kernels.batch_planes": "kernels.batch_planes_s",
    "kernels.gather_segments": "kernels.gather_segments_s",
    "hyperplane.side_exact": "hyperplane.side_exact_s",
    "hyperplane.through": "hyperplane.through_s",
    "soa.init": "soa.init_s",
    "soa.step_round": "soa.step_round_self_s",
    "soa.pair_ridges": "soa.pair_ridges_s",
    "soa.finish": "soa.finish_s",
    "parallel.parallel_hull": "parallel.adapt_s",
    "validate.validate_hull": "validate.validate_hull_s",
    "certify.make_certificate": "certify.make_certificate_s",
    "certify.verify_certificate": "certify.verify_certificate_s",
    "robust.robust_hull": "robust.ladder_self_s",
}


# -- environment ------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """At most ``nproc`` threads for any BLAS/OpenMP pool; must run
    before NumPy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= cap):
            os.environ[var] = str(cap)


def fingerprint() -> dict:
    import numpy as np
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 2),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def interpreter_probe(samples: list[float]) -> None:
    """Time a fixed piece of pure-Python work that uses no ``repro`` code.

    The host is shared, and while other load runs on it interpreted code
    slows by up to ~1.7x for minutes (NumPy-bound code far less), more
    than any bound a raw timing could hold across runs.  The probe slows
    with it, so it is one of the controls of ``wall_s`` (``CONTROLS``).
    A change to ``repro`` moves the operation's time, never the probe's.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(40_000):
        table[i & 1023] = (i, i * 3)
        acc += table.get((i * 7) & 1023, (0, 1))[1]
    samples.append(time.perf_counter() - t0)


@functools.cache
def qhull_input():
    """The Qhull control's input: 100 000 points uniform in the unit ball,
    drawn here so that no ``repro`` code can change it."""
    import numpy as np
    rng = np.random.default_rng(0)
    g = rng.standard_normal((100_000, 3))
    r = rng.random(100_000) ** (1 / 3)
    return g * (r / np.linalg.norm(g, axis=1))[:, None]


def qhull_probe(samples: list[float]) -> None:
    """Time scipy's Qhull (compiled C) on :func:`qhull_input`: the
    host-speed control of compiled, memory-bound work, which the
    interpreter probe does not track."""
    from scipy.spatial import ConvexHull
    pts = qhull_input()
    t0 = time.perf_counter()
    ConvexHull(pts)
    samples.append(time.perf_counter() - t0)


def take_controls(samples: dict[str, list]) -> None:
    """One sample of the interpreter probe and two of Qhull."""
    interpreter_probe(samples.setdefault("probe", []))
    for _ in range(2):
        qhull_probe(samples.setdefault("qhull", []))


def host_speed(samples: dict[str, list]) -> float:
    """The factor that brings this run's times to the reference host speed."""
    speed = 1.0
    for name, (ref, power) in CONTROLS.items():
        speed *= (ref / statistics.median(samples[name])) ** power
    return speed


def cold_import(modules: tuple[str, ...]) -> float:
    """Time to import ``modules`` in a fresh interpreter."""
    code = ("import sys, time\nt = time.perf_counter()\nimport " + ", ".join(modules)
            + "\nsys.stdout.write(repr(time.perf_counter() - t))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def measure_setup(modules: tuple[str, ...], controls: list[float]) -> list[float]:
    """Cold import of ``modules``, alternating with its host-speed control,
    a cold ``import numpy`` (the same kind of work, and no ``repro`` code),
    into ``controls``.  The interpreter probe tracks cold imports poorly:
    as their control it widened the spread of run medians."""
    times = []
    for _ in range(SETUP_REPEATS):
        controls.append(cold_import(("numpy",)))
        times.append(cold_import(modules))
    return times


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (VmHWM) at the current RSS, so
    the next reading is the peak of one operation."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:       # no per-operation reset: readings are process peaks
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- the timed loop -----------------------------------------------------------

def one_op(w, j, pts, hull_seed, tracer=None) -> dict:
    """Hull one input; only the call itself is timed, and a raised error
    is recorded as a failed operation."""
    from workloads import run_op, summarize
    op = {"input": j, "wall_s": None, "cpu_s": None, "peak_rss_mb": None,
          "summary": None, "error": None, "spans": None}
    gc.collect()
    reset_peak_rss()
    lo = len(tracer.spans) if tracer else 0
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            result = run_op(w, pts, hull_seed)
        else:
            with tracer.span("robust.robust_hull" if w.robust else "soa.soa_hull"):
                result = run_op(w, pts, hull_seed)
        op["wall_s"] = time.perf_counter() - t0
        op["cpu_s"] = time.process_time() - c0
        op["peak_rss_mb"] = peak_rss_mb()
        op["summary"] = summarize(w, result, pts)
    except Exception as exc:  # a failed operation is counted, not fatal
        op["error"] = f"{type(exc).__name__}: {exc}"
    if tracer:
        op["spans"] = (lo, len(tracer.spans))
    return op


def timed_ops(w, seeds, budget_s, min_ops, samples, tracer=None) -> tuple[list, list]:
    """Hull the inputs of ``seeds`` in turn until ``budget_s`` would be
    exceeded (at least ``min_ops`` times), taking the host-speed controls
    into ``samples`` before each.  With a tracer, each input is hulled
    untraced and then traced, back to back, so the two runs of an input
    see the same machine state.  Returns (untraced, traced) ops."""
    from spans import wrapped
    plain: list[dict] = []
    traced: list[dict] = []
    t_start = time.perf_counter()
    while True:
        j = len(plain) % len(seeds)
        pts, hull_seed = w.make_input(seeds[j])
        take_controls(samples)
        plain.append(one_op(w, j, pts, hull_seed))
        if tracer is not None:
            with wrapped(tracer, WRAP_TARGETS):
                traced.append(one_op(w, j, pts, hull_seed, tracer))
        elapsed = time.perf_counter() - t_start
        if len(plain) >= min_ops and elapsed * (len(plain) + 1) / len(plain) > budget_s:
            return plain, traced


def check_ops(w, seeds, ops) -> None:
    """Reference-check every successful operation (records failures in
    ``op["error"]``)."""
    from workloads import reference_problems, reference_vertices
    for j, seed in enumerate(seeds):
        mine = [op for op in ops if op["input"] == j and op["error"] is None]
        if not mine:
            continue
        pts, _ = w.make_input(seed)
        ref = reference_vertices(w, pts)
        for op in mine:
            problems = reference_problems(w, op["summary"], pts, ref)
            if problems:
                op["error"] = "check: " + "; ".join(problems)


def count_mismatches(ops, tracer=None) -> list[str]:
    """Exact counts must agree across every operation on one input,
    traced or not; the traced exact-fallback calls must repeat too, and
    those made by the sweep must equal the fallbacks the run counted
    (validation makes exact calls of its own)."""
    bad = []
    seen: dict[tuple, set] = defaultdict(set)
    for op in ops:
        if op["error"] is not None:
            continue
        c, j = op["summary"].counts, op["input"]
        seen[(j, "counts")].add(tuple(c.get(k, 0) for k in COUNT_KEYS))
        if op["spans"] is not None:
            calls = [s for s in tracer.spans[slice(*op["spans"])]
                     if s.name == "hyperplane.side_exact"]
            seen[(j, "exact-fallback calls")].add(len(calls))
            in_sweep = sum(tracer.spans[s.parent].name == "kernels.visible_flat" for s in calls)
            if in_sweep != c["fallbacks"]:
                bad.append(f"input {j}: {in_sweep} traced exact-fallback calls in the "
                           f"sweep != {c['fallbacks']} fallbacks counted by the run")
    for (j, what), vals in sorted(seen.items()):
        if len(vals) > 1:
            bad.append(f"input {j}: {what} differ across repeats: {sorted(vals)}")
    return bad


# -- per-layer metrics from spans ------------------------------------------------

def op_layers(op, spans, own) -> dict:
    """Per-layer values of one traced operation."""
    lo, hi = op["spans"]
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    sums: Counter = Counter()
    for i in range(lo, hi):
        s = spans[i]
        self_ns[s.name] += own[i]
        calls[s.name] += 1
        sums.update(s.attrs)
        if s.name == "kernels.visible_flat" and spans[s.parent].name == "soa.step_round":
            sums["round_tests"] += s.attrs["tests"]
    c = op["summary"].counts
    tests = sums["tests"]
    out = {metric: self_ns[name] / 1e9 for name, metric in SELF_TIME_METRICS.items()}
    out.update({
        "kernels.visible_flat_ns_per_test": self_ns["kernels.visible_flat"] / max(tests, 1),
        "kernels.fallback_rate": c["fallbacks"] / max(c["batched_signs"], 1),
        "kernels.sweep_bytes_computed": sums["bytes"],
        "hyperplane.side_exact_calls": calls["hyperplane.side_exact"],
        "hyperplane.us_per_fallback":
            self_ns["hyperplane.side_exact"] / 1e3 / max(calls["hyperplane.side_exact"], 1),
        "soa.rounds": c["rounds"],
        "soa.visibility_tests": c["visibility_tests"],
        "soa.facets_created": c["facets_created"],
        "soa.dedupe_keep_ratio": sums["round_tests"] / max(sums["entries"], 1),
        "soa.conflict_survival": sums["pool_entries"] / max(tests, 1),
        "soa.pool_capacity_bytes": sums["pool_bytes"],
        "robust.attempts": c.get("attempts", 0),
        "bench.unattributed_s": op["wall_s"] - sum(
            own[i] for i in range(lo, hi) if spans[i].name != "soa.soa_hull") / 1e9,
    })
    return out


def per_input_median(ops) -> dict[int, float]:
    by: dict[int, list] = defaultdict(list)
    for op in ops:
        if op["error"] is None:
            by[op["input"]].append(op["wall_s"])
    return {j: statistics.median(v) for j, v in by.items()}


def layer_metrics(w, plain, traced, tracer) -> dict:
    from spans import DriftError, self_times
    spans = tracer.spans
    names = Counter(s.name for s in spans)
    missing = [n for n in w.expect_spans if not names[n]]
    if missing:
        raise DriftError(f"{w.name}: expected layers recorded no call: {missing}")
    own = self_times(spans)
    ok = [op for op in traced if op["error"] is None]
    rows = [op_layers(op, spans, own) for op in ok]
    out = {m: statistics.median(r[m] for r in rows) for m in rows[0]} if rows else {}
    good = [op for op in plain if op["error"] is None]
    out["process.cpu_per_wall"] = (sum(op["cpu_s"] for op in good)
                                   / max(sum(op["wall_s"] for op in good), 1e-12))
    a, b = per_input_median(plain), per_input_median(traced)
    both = sorted(set(a) & set(b))
    out["trace.overhead_ratio"] = (sum(b[j] for j in both) / sum(a[j] for j in both) - 1
                                   if both else 0.0)
    return {m: out.get(m, 0.0) for m in PER_LAYER}


def shares(metrics: dict, wall: float) -> dict:
    """Layer self time as a share of the median traced wall time."""
    return {m: round(v / wall, 3) for m, v in metrics.items()
            if PER_LAYER[m] == "s" and wall > 0 and v / wall >= 0.02}


# -- one workload -------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS, run_op
    w = WORKLOADS[name]
    samples: dict[str, list] = {"probe": [], "import": []}
    setup = [] if trace else measure_setup(w.modules, samples["import"])
    seeds = w.input_seeds(seed)
    small = w.tiny()
    run_op(small, *small.make_input(seed))       # warm lazy imports and code paths

    tracer = Tracer() if trace else None
    plain, traced = timed_ops(w, seeds, seconds, MIN_OPS, samples, tracer)
    ops = plain + traced
    check_ops(w, seeds, ops)
    mismatches = count_mismatches(ops, tracer)
    failed = sum(op["error"] is not None for op in ops)
    walls = [op["wall_s"] for op in plain if op["error"] is None]
    peaks = [op["peak_rss_mb"] for op in plain if op["error"] is None]

    raw_wall = statistics.median(walls) if walls else float("nan")
    if trace:
        metrics = layer_metrics(w, plain, traced, tracer)
        metrics["bench.probe_s"] = statistics.median(samples["probe"])
    else:
        metrics = {
            "wall_s": raw_wall * host_speed(samples),
            "peak_rss_mb": statistics.median(peaks) if peaks else float("nan"),
            "setup_s": statistics.median(setup) * NUMPY_IMPORT_REFERENCE_S
                       / statistics.median(samples["import"]),
        }
    units = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and not mismatches and bool(walls)
    env = fingerprint()

    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("  env " + json.dumps(env, sort_keys=True))
    if trace:
        twall = statistics.median([op["wall_s"] for op in traced if op["error"] is None]
                                  or [float("nan")])
        print(f"  traced ops {len(traced)}, median wall {twall:.3f} s; self-time shares "
              + json.dumps(shares(metrics, twall)))
    else:
        print(f"  wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)} ops "
              f"over {len(set(op['input'] for op in plain))} inputs, at reference host speed "
              f"(raw {raw_wall:.4f} s, x {host_speed(samples):.4f})")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   median over ops of the "
              "peak during one op")
        print(f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} cold imports, "
              f"at reference cold-import speed (raw {statistics.median(setup):.4f} s; "
              f"cold numpy import {statistics.median(samples['import']) * 1e3:.1f} ms, "
              f"reference {NUMPY_IMPORT_REFERENCE_S * 1e3:.1f} ms)")
        for ctl, (ref, power) in CONTROLS.items():
            print(f"  {ctl:<12} {statistics.median(samples[ctl]) * 1e3:.2f} ms  median of "
                  f"{len(samples[ctl])}; reference {ref * 1e3:.2f} ms, power {power}")
    print(f"  fail_rate    {failed}/{len(ops)} = {failed / len(ops):.4f}")
    for op in ops:
        if op["error"]:
            print(f"  FAILED input {op['input']}: {op['error']}")
    for msg in mismatches:
        print(f"  COUNT MISMATCH {msg}")

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "setup_samples_s": setup,
        "control_samples_s": samples, "raw_wall_s": raw_wall,
        "metrics": metrics,
        "ops": [{"input": op["input"], "seed": seeds[op["input"]], "traced": op["spans"] is not None,
                 "wall_s": op["wall_s"], "cpu_s": op["cpu_s"],
                 "peak_rss_mb": op["peak_rss_mb"], "error": op["error"],
                 "counts": op["summary"].counts if op["summary"] else None}
                for op in ops],
        "count_mismatches": mismatches,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_chrome(OUT / f"{stem}.trace.json", {"workload": name, "seed": seed})

    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, each in a fresh process of its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {done.returncode} without a result",
                  file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    if not trace:
        print("\nworkload      " + "  ".join(f"{m:>14}" for m in END_TO_END) + "  fail_rate")
        for name, r in results.items():
            vals = "  ".join(f"{r['metrics'][m]['value']:>11.4f} {END_TO_END[m]:<2}"
                             for m in END_TO_END)
            print(f"{name:<13} {vals}  {r['failed']}/{r['attempted']}")
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    cap_threads()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from spans import DriftError
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except DriftError as exc:
        print(f"perfbench: API drift: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
