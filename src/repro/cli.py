"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``hull``      build a hull and print run statistics
``depth``     depth-vs-n campaign (experiment E1)
``work``      sequential-vs-parallel work comparison (E2)
``speedup``   simulated speedup table from the work-span log (E13)
``delaunay``  Delaunay three ways: lifted / Bowyer-Watson / parallel (E14)
``figure1``   the paper's Figure 1 walkthrough (E4)
``crcw``      measured CRCW PRAM span accounting (E3)
``certify``   build a hull via the escalation ladder, emit and verify
              its independently-checked certificate (E18)
``lint``      static concurrency/robustness checks (rules RPR001-RPR005)
``effects``   interprocedural effect analysis: statically prove the
              atomic-step discipline (rules RPREFF001-RPREFF004, E20)
``race-check``  dynamic happens-before race check of the multimap (E16)
``chaos``     fault-injection suite: stall sweeps + crash/delay roundtrips (E17)
``bench-kernels``  scalar oracle vs the SoA flat visibility sweep,
              filter-fallback rates, end-to-end hulls (E19)
``noisy``     noisy-oracle campaign: output error vs flip rate p, vote
              overhead, certificate validator power (E23)

Examples
--------

    python -m repro hull --n 5000 --d 3 --workload sphere --executor rounds
    python -m repro depth --sizes 128 512 2048 --d 2 --seeds 5
    python -m repro speedup --n 2000 --procs 1 4 16 64
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analysis import compare_work, crcw_span, measure_hull_depths, speedup_table
from .configspace.theory import harmonic
from .geometry import points as gen
from .hull import parallel_hull, validate_hull
from .runtime import ProcessExecutor, RoundExecutor, SerialExecutor, ThreadExecutor

WORKLOADS = {
    "ball": gen.uniform_ball,
    "cube": gen.uniform_cube,
    "sphere": gen.on_sphere,
    "gaussian": gen.gaussian,
    "anisotropic": gen.anisotropic,
    "clusters": gen.two_clusters,
    "cyclic": gen.moment_curve,
}

EXECUTORS = {
    "serial": lambda args: SerialExecutor(),
    "rounds": lambda args: RoundExecutor(),
    "threads": lambda args: ThreadExecutor(args.workers),
    "process": lambda args: ProcessExecutor(n_workers=args.workers),
}


def _points(args) -> np.ndarray:
    try:
        workload = WORKLOADS[args.workload]
    except KeyError:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return workload(args.n, args.d, seed=args.seed)


def cmd_hull(args) -> None:
    pts = _points(args)
    if args.engine == "soa":
        # The SoA engine is round-synchronous by construction and pairs
        # ridges by sort: the executor/multimap knobs do not apply.
        if args.executor != "rounds":
            raise SystemExit(
                "--engine soa is round-synchronous; it only runs with the "
                "default --executor rounds"
            )
        executor = None
        multimap = "dict"
    else:
        executor = EXECUTORS[args.executor](args)
        multimap = "cas" if args.executor == "threads" else "dict"
    extra = {}
    if args.noise > 0.0:
        # Noisy oracle: run through the certificate-gated ladder so a
        # hull the noise corrupted escalates (vote count, then the
        # exact rungs) instead of being printed.
        from .geometry.noisy import NoisyKernel, parse_votes
        from .hull import robust_hull

        try:
            nk = NoisyKernel(p=args.noise, votes=parse_votes(args.votes),
                             seed=args.seed)
        except ValueError as exc:
            raise SystemExit(str(exc))
        res = robust_hull(pts, seed=args.seed + 1, noise=nk,
                          executor=executor, multimap=multimap,
                          engine=args.engine)
        run = res.run
        extra = {"mode": res.mode, "escalations": res.escalations}
    else:
        run = parallel_hull(pts, seed=args.seed + 1, executor=executor,
                            multimap=multimap, engine=args.engine)
    validate_hull(run.facets, run.points)
    out = {
        "n": args.n,
        "d": args.d,
        "workload": args.workload,
        "executor": args.executor,
        "kernel": run.exec_stats.kernel_stats,
        **extra,
        "hull_facets": len(run.facets),
        "hull_vertices": len(run.vertex_indices()),
        "facets_created": len(run.created),
        "visibility_tests": run.counters.visibility_tests,
        "dependence_depth": run.dependence_depth(),
        "rounds": run.exec_stats.rounds,
        "work": run.tracker.work,
        "span": run.tracker.span,
        "parallelism": round(run.tracker.parallelism, 1),
    }
    json.dump(out, sys.stdout, indent=2)
    print()


def cmd_depth(args) -> None:
    workload = WORKLOADS[args.workload]
    camp = measure_hull_depths(
        args.sizes, args.d, range(args.seeds),
        generator=lambda n, d, s: workload(n, d, seed=s),
    )
    print(f"{'n':>7} {'H_n':>6} {'mean depth':>11} {'max':>5} {'sigma':>7} {'rounds':>7}")
    for s in camp.samples:
        print(f"{s.n:>7} {harmonic(s.n):>6.2f} {s.mean_depth:>11.2f} "
              f"{s.max_depth:>5} {s.depth_over_harmonic:>7.2f} "
              f"{np.mean(s.rounds):>7.1f}")
    print(f"fitted depth slope per ln(n): {camp.log_slope():.2f}")


def cmd_work(args) -> None:
    pts = _points(args)
    row = compare_work(pts, seed=args.seed).row()
    json.dump(row, sys.stdout, indent=2, default=str)
    print()


def cmd_speedup(args) -> None:
    pts = _points(args)
    run = parallel_hull(pts, seed=args.seed)
    print(f"{'P':>5} {'T_P':>10} {'speedup':>8} {'model':>8} {'util':>6}")
    for row in speedup_table(run, args.procs):
        print(f"{row['P']:>5} {row['T_P']:>10,} {row['speedup']:>8.2f} "
              f"{row['model_speedup']:>8.2f} {row['utilisation']:>6.2f}")


def cmd_delaunay(args) -> None:
    from .apps import bowyer_watson, delaunay as lifted_delaunay
    from .apps.parallel_delaunay import parallel_delaunay

    pts = WORKLOADS[args.workload](args.n, 2, seed=args.seed)
    order = np.random.default_rng(args.seed + 1).permutation(args.n)
    lifted = lifted_delaunay(pts, order=order.copy())
    bw = bowyer_watson(pts, order=order.copy())
    pd = parallel_delaunay(pts, order=order.copy())
    agree = lifted.triangles == bw.triangles == pd.triangles
    print(f"{'method':<26} {'triangles':>9} {'depth':>6}")
    print(f"{'lifted parallel hull':<26} {lifted.n_triangles:>9} {lifted.dependence_depth():>6}")
    print(f"{'sequential BW':<26} {bw.n_triangles:>9} {bw.dependence_depth():>6}")
    print(f"{'parallel ProcessEdge':<26} {pd.n_triangles:>9} {pd.dependence_depth():>6}")
    print(f"all agree: {agree}; identical tests BW==parallel: "
          f"{pd.in_circle_tests == bw.in_circle_tests}")


def cmd_crcw(args) -> None:
    pts = _points(args)
    run = parallel_hull(pts, seed=args.seed)
    for mode in ("approximate", "exact"):
        rep = crcw_span(run, compaction=mode)
        print(f"{mode:>12}: algorithm rounds={rep.algorithm_rounds} "
              f"PRAM span={rep.span_rounds} per-round={rep.span_per_round:.1f} "
              f"normalized={rep.normalized():.2f}")


def cmd_certify(args) -> None:
    from .geometry.degenerate import corpus_case, corpus_names
    from .hull import robust_hull
    from .hull.certify import (
        CORRUPTION_MODES,
        CertificateError,
        corrupt_certificate,
        verify_certificate,
    )

    if args.family is not None:
        try:
            pts = corpus_case(args.family, seed=args.seed)
        except KeyError:
            raise SystemExit(
                f"unknown degenerate family {args.family!r}; "
                f"choose from {corpus_names()}"
            )
    else:
        pts = _points(args)
    res = robust_hull(pts, seed=args.seed)
    cert = res.certificate
    out = {
        "n": int(len(pts)),
        "d": int(pts.shape[1]),
        "source": args.family or args.workload,
        "mode": res.mode,
        "escalations": res.escalations,
        "facets": len(cert.facets),
        "vertices": len(res.vertex_indices()),
        "sos": cert.sos,
        "verified": True,  # robust_hull re-raises otherwise
    }
    if args.corrupt:
        # Adversarial self-test: the corrupted certificate MUST be
        # rejected; exiting 0 means the checker caught it.
        corrupted = corrupt_certificate(cert, args.corrupt, seed=args.seed)
        try:
            verify_certificate(corrupted, pts)
        except CertificateError as exc:
            out["corruption"] = args.corrupt
            out["rejected"] = True
            out["rejection_error"] = str(exc)
        else:
            out["corruption"] = args.corrupt
            out["rejected"] = False
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(cert.to_dict(), fh)
        out["certificate_file"] = args.json_out
    json.dump(out, sys.stdout, indent=2)
    print()
    if args.corrupt and not out["rejected"]:
        raise SystemExit(1)


def cmd_lint(args) -> None:
    from .lint import ALL_RULES, lint_paths

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.name}: {rule.summary}")
        return
    from pathlib import Path

    missing = [p for p in (args.paths or []) if not Path(p).exists()]
    if missing:
        raise SystemExit(f"lint: no such path(s): {', '.join(missing)}")
    violations = lint_paths(
        args.paths or None,
        select=args.select,
        ignore=args.ignore or (),
    )
    if args.sarif:
        from .analyze import findings_to_sarif

        table = {r.id: (r.name, r.summary) for r in ALL_RULES}
        with open(args.sarif, "w") as fh:
            json.dump(findings_to_sarif("repro-lint", table, violations),
                      fh, indent=2)
        print(f"wrote {args.sarif}", file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump([v.__dict__ for v in violations], fh, indent=2)
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.format == "json":
        json.dump([v.__dict__ for v in violations], sys.stdout, indent=2)
        print()
    else:
        for v in violations:
            print(v.format())
        if violations:
            print(f"{len(violations)} violation(s)")
    if violations:
        raise SystemExit(1)


def cmd_effects(args) -> None:
    from .analyze import (
        RULES,
        analyze_paths,
        compare_baseline,
        load_baseline,
        render_text,
        save_baseline,
        to_json,
        to_sarif,
    )

    if args.list_rules:
        for rid, (name, summary) in sorted(RULES.items()):
            print(f"{rid}  {name}: {summary}")
        return
    from pathlib import Path

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise SystemExit(f"effects: no such path(s): {', '.join(missing)}")
    result = analyze_paths(paths)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(to_json(result), fh, indent=2)
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.sarif:
        with open(args.sarif, "w") as fh:
            json.dump(to_sarif(result), fh, indent=2)
        print(f"wrote {args.sarif}", file=sys.stderr)
    if args.update_baseline:
        save_baseline(args.baseline, result)
        print(f"wrote {args.baseline}", file=sys.stderr)
        return
    problems: list[str] = []
    if args.baseline and Path(args.baseline).exists():
        problems = compare_baseline(result, load_baseline(args.baseline))
        failed = bool(problems)
    else:
        failed = bool(result.findings)
    if args.format == "json":
        payload = to_json(result)
        payload["baseline_problems"] = problems
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(render_text(result, verbose=args.verbose))
        for p in problems:
            print(f"baseline: {p}")
    if failed:
        raise SystemExit(1)


def cmd_hotpath(args) -> None:
    from .analyze import (
        HOT_RULES,
        analyze_hotpaths,
        compare_baseline,
        findings_to_sarif,
        load_baseline,
        render_hot_text,
        save_baseline,
    )

    if args.list_rules:
        for rid, (name, summary) in sorted(HOT_RULES.items()):
            print(f"{rid}  {name}: {summary}")
        return
    from pathlib import Path

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise SystemExit(f"hotpath: no such path(s): {', '.join(missing)}")
    result = analyze_hotpaths(paths)

    def payload() -> dict:
        return {
            "schema_version": 1,
            "findings": [f.as_dict() for f in result.findings],
            "suppressed": [f.as_dict() for f in result.suppressed],
            "entries": {q: reason for q, reason in sorted(result.entries.items())},
            "hot_functions": len(result.hot),
            "annotated": len(result.annotations),
        }

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(payload(), fh, indent=2)
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.sarif:
        with open(args.sarif, "w") as fh:
            json.dump(
                findings_to_sarif("repro-hotpath", HOT_RULES, result.findings),
                fh, indent=2,
            )
        print(f"wrote {args.sarif}", file=sys.stderr)
    if args.update_baseline:
        save_baseline(args.baseline, result,
                      suppression_key="rprhot_suppressions")
        print(f"wrote {args.baseline}", file=sys.stderr)
        return
    problems: list[str] = []
    if args.baseline and Path(args.baseline).exists():
        problems = compare_baseline(result, load_baseline(args.baseline),
                                    suppression_key="rprhot_suppressions")
        failed = bool(problems)
    else:
        failed = bool(result.findings)
    if args.format == "json":
        out = payload()
        out["baseline_problems"] = problems
        json.dump(out, sys.stdout, indent=2)
        print()
    else:
        print(render_hot_text(result, verbose=args.verbose))
        for p in problems:
            print(f"baseline: {p}")
    if failed:
        raise SystemExit(1)


def cmd_fpcheck(args) -> None:
    from .analyze import (
        FP_RULES,
        analyze_fpcheck,
        compare_baseline,
        findings_to_sarif,
        load_baseline,
        render_fp_text,
        save_baseline,
    )

    if args.list_rules:
        for rid, (name, summary) in sorted(FP_RULES.items()):
            print(f"{rid}  {name}: {summary}")
        return
    from pathlib import Path

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise SystemExit(f"fpcheck: no such path(s): {', '.join(missing)}")
    result = analyze_fpcheck(paths)

    def payload() -> dict:
        return {
            "schema_version": 1,
            "findings": [f.as_dict() for f in result.findings],
            "suppressed": [f.as_dict() for f in result.suppressed],
            "entries": {q: reason for q, reason in sorted(result.entries.items())},
            "hot_functions": len(result.hot),
            "annotated": len(result.annotations),
            "claims": [
                {
                    "qualname": c.qualname,
                    "name": c.name,
                    "line": c.line,
                    "kind": c.kind,
                    "pin": list(c.pin) if c.pin else None,
                    "ok": c.ok,
                }
                for c in result.claims
            ],
        }

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(payload(), fh, indent=2)
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.sarif:
        with open(args.sarif, "w") as fh:
            json.dump(
                findings_to_sarif("repro-fpcheck", FP_RULES, result.findings),
                fh, indent=2,
            )
        print(f"wrote {args.sarif}", file=sys.stderr)
    if args.update_baseline:
        save_baseline(args.baseline, result,
                      suppression_key="rprfp_suppressions")
        print(f"wrote {args.baseline}", file=sys.stderr)
        return
    problems: list[str] = []
    if args.baseline and Path(args.baseline).exists():
        problems = compare_baseline(result, load_baseline(args.baseline),
                                    suppression_key="rprfp_suppressions")
        failed = bool(problems)
    else:
        failed = bool(result.findings)
    if args.format == "json":
        out = payload()
        out["baseline_problems"] = problems
        json.dump(out, sys.stdout, indent=2)
        print()
    else:
        print(render_fp_text(result, verbose=args.verbose))
        for p in problems:
            print(f"baseline: {p}")
    if failed:
        raise SystemExit(1)


def cmd_race_check(args) -> None:
    from .runtime.racecheck import check_multimap

    impls = ["cas", "tas"] if args.impl == "both" else [args.impl]
    failed = False
    for impl in impls:
        scenarios = [(2, args.prefix)]
        if args.three:
            scenarios.append((3, args.prefix_three))
        for n_ops, prefix in scenarios:
            try:
                summary = check_multimap(
                    impl,
                    capacity=args.capacity,
                    prefix_len=prefix,
                    n_ops=n_ops,
                    collide=not args.no_collide,
                )
            except AssertionError as exc:
                # check_multimap asserts Theorem A.1 on every schedule;
                # report the counterexample instead of a traceback.
                print(f"[{n_ops} ops, prefix {prefix}] race-check[{impl}]: FAIL -- {exc}")
                failed = True
                continue
            print(f"[{n_ops} ops, prefix {prefix}] {summary.describe()}")
            failed = failed or not summary.ok
    if failed:
        raise SystemExit(1)


def cmd_chaos(args) -> None:
    from .runtime.chaos import run_chaos_suite

    report = run_chaos_suite(seed=args.seed, budget=args.budget,
                             executor=args.executor)
    json.dump(report.as_dict(), sys.stdout, indent=2)
    print()
    if not report.ok:
        raise SystemExit(1)


def cmd_noisy(args) -> None:
    from .analysis.noisybench import run_noisy_bench

    report = run_noisy_bench(seed=args.seed, smoke=args.smoke)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    s = report["summary"]
    if not s["all_ladder_runs_match_exact"] or s["validator_false_accepts"]:
        raise SystemExit(1)


def cmd_bench_kernels(args) -> None:
    from .analysis.kernelbench import run_kernel_bench

    report = run_kernel_bench(seed=args.seed, smoke=args.smoke)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(report, sys.stdout, indent=2)
        print()


def _figure1(args) -> None:
    from .geometry import figure1_points

    pts, labels = figure1_points()
    run = parallel_hull(pts, order=np.arange(10), base_size=7)

    def edge(fid: int) -> str:
        f = next(x for x in run.created if x.fid == fid)
        return "-".join(labels[i] for i in f.indices)

    for rnd in range(run.exec_stats.rounds):
        print(f"round {rnd + 1}:")
        for e in run.events:
            if e.round != rnd:
                continue
            ridge = ",".join(labels[i] for i in sorted(e.ridge))
            if e.kind == "create":
                print(f"  {{{ridge}}}: create {edge(e.created)} "
                      f"(replaces {edge(e.removed)}, pivot {labels[e.pivot]})")
            elif e.kind == "bury":
                a, b = e.removed_pair
                print(f"  {{{ridge}}}: bury {edge(a)}, {edge(b)} (pivot {labels[e.pivot]})")
            else:
                print(f"  {{{ridge}}}: final")
    print("final hull:", sorted(edge(f.fid) for f in run.facets))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Randomized incremental convex hull (SPAA'20) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sizes=False):
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workload", default="ball", choices=sorted(WORKLOADS))

    p = sub.add_parser("hull", help="build a hull, print statistics")
    common(p)
    p.add_argument("--executor", default="rounds", choices=sorted(EXECUTORS))
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--engine", default="objects", choices=["objects", "soa"],
                   help="hull core, each with its one visibility kernel: "
                        "the per-facet object task driver (scalar oracle) "
                        "or the round-vectorized conflict-list SoA engine "
                        "(flat batched sweep; requires the default rounds "
                        "executor)")
    p.add_argument("--noise", type=float, default=0.0, metavar="P",
                   help="flip each visibility decision with probability P "
                        "(seeded noisy oracle; runs through the "
                        "certificate-gated robust ladder)")
    p.add_argument("--votes", default="1", metavar="K",
                   help="majority-vote repetitions per noisy decision: a "
                        "positive odd integer or 'adaptive'")
    p.set_defaults(fn=cmd_hull)

    p = sub.add_parser("depth", help="depth-vs-n campaign (E1)")
    p.add_argument("--sizes", type=int, nargs="+", default=[128, 512, 2048])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--workload", default="ball", choices=sorted(WORKLOADS))
    p.set_defaults(fn=cmd_depth)

    p = sub.add_parser("work", help="sequential vs parallel work (E2)")
    common(p)
    p.set_defaults(fn=cmd_work)

    p = sub.add_parser("speedup", help="simulated speedup table (E13)")
    common(p)
    p.add_argument("--procs", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32])
    p.set_defaults(fn=cmd_speedup)

    p = sub.add_parser("delaunay", help="Delaunay three ways (E14)")
    common(p)
    p.set_defaults(fn=cmd_delaunay)

    p = sub.add_parser("figure1", help="the Figure 1 walkthrough (E4)")
    p.set_defaults(fn=_figure1)

    p = sub.add_parser("crcw", help="CRCW PRAM span accounting (E3)")
    common(p)
    p.set_defaults(fn=cmd_crcw)

    p = sub.add_parser(
        "certify",
        help="build a hull via the robust ladder and verify its certificate",
    )
    common(p)
    p.add_argument("--family", default=None, metavar="NAME",
                   help="use a degenerate-corpus family instead of a workload "
                        "(see repro.geometry.degenerate)")
    p.add_argument("--corrupt", default=None,
                   choices=["drop-facet", "flip-orientation",
                            "duplicate-ridge", "tamper-vertex"],
                   help="corrupt the certificate and exit 0 iff the "
                        "verifier rejects it")
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="also write the full certificate JSON to FILE")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("lint", help="static concurrency/robustness checks")
    p.add_argument("paths", nargs="*", help="files/dirs to lint (default: src tools)")
    p.add_argument("--select", nargs="+", metavar="RPRnnn",
                   help="run only these rule ids")
    p.add_argument("--ignore", nargs="+", metavar="RPRnnn",
                   help="skip these rule ids")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="also write the violations as JSON to FILE")
    p.add_argument("--sarif", default=None, metavar="FILE",
                   help="also write a SARIF 2.1.0 report to FILE "
                        "(shared emitter with effects/hotpath)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule registry and exit")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "effects",
        help="interprocedural effect analysis of the atomic-step "
             "discipline (rules RPREFF001-004)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to analyse (default: src)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="also write the full JSON report to FILE")
    p.add_argument("--sarif", default=None, metavar="FILE",
                   help="also write a SARIF 2.1.0 report to FILE")
    p.add_argument("--baseline", default="analyze-baseline.json",
                   metavar="FILE",
                   help="ratchet baseline to compare against (ignored "
                        "if the file does not exist)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from this run and exit 0")
    p.add_argument("--verbose", action="store_true",
                   help="also print shared-effect sites and imprecision notes")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule registry and exit")
    p.set_defaults(fn=cmd_effects)

    p = sub.add_parser(
        "hotpath",
        help="static vectorization & hot-path discipline analysis of the "
             "batch-kernel arc (rules RPRHOT001-006)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to analyse (default: src)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="also write the full JSON report to FILE")
    p.add_argument("--sarif", default=None, metavar="FILE",
                   help="also write a SARIF 2.1.0 report to FILE")
    p.add_argument("--baseline", default="hotpath-baseline.json",
                   metavar="FILE",
                   help="ratchet baseline to compare against (ignored "
                        "if the file does not exist)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from this run and exit 0")
    p.add_argument("--verbose", action="store_true",
                   help="also print entry points and hot-region provenance")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule registry and exit")
    p.set_defaults(fn=cmd_hotpath)

    p = sub.add_parser(
        "fpcheck",
        help="static floating-point filter-soundness analysis of the "
             "predicate kernels (rules RPRFP001-004, 999)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to analyse (default: src)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="also write the full JSON report to FILE")
    p.add_argument("--sarif", default=None, metavar="FILE",
                   help="also write a SARIF 2.1.0 report to FILE")
    p.add_argument("--baseline", default="fpcheck-baseline.json",
                   metavar="FILE",
                   help="ratchet baseline to compare against (ignored "
                        "if the file does not exist)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from this run and exit 0")
    p.add_argument("--verbose", action="store_true",
                   help="also print every envelope-domination claim checked")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule registry and exit")
    p.set_defaults(fn=cmd_fpcheck)

    p = sub.add_parser("race-check",
                       help="happens-before race check of the concurrent multimap")
    p.add_argument("--impl", default="both", choices=["cas", "tas", "both"])
    p.add_argument("--capacity", type=int, default=4)
    p.add_argument("--prefix", type=int, default=8,
                   help="exhaustive schedule-prefix length for the 2-op race")
    p.add_argument("--three", action="store_true",
                   help="also sweep the 3-op colliding-key scenario")
    p.add_argument("--prefix-three", type=int, default=5)
    p.add_argument("--no-collide", action="store_true",
                   help="use the default hash instead of forced collisions")
    p.set_defaults(fn=cmd_race_check)

    p = sub.add_parser("chaos",
                       help="fault-injection suite: stalls, crashes, delays (E17)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", default="small",
                   choices=["small", "medium", "large"],
                   help="how much chaos to run (small fits in CI)")
    p.add_argument("--executor", default=None,
                   choices=["rounds", "thread", "process"],
                   help="restrict the hull roundtrips to one executor "
                        "family (skips the executor-independent stall "
                        "sweeps); default runs everything")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("noisy",
                       help="noisy-oracle campaign: error vs p, vote "
                            "overhead, validator power (E23)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny grid / single seeds (CI harness check)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_noisy)

    p = sub.add_parser("bench-kernels",
                       help="scalar oracle vs the SoA flat sweep (E19)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small sizes / few repeats (CI harness check)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_bench_kernels)

    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    main()
