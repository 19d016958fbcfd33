"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Covers the metric names against ``BENCHMARK.json``, the reference checks
(they must pass real hulls and reject broken ones), the exact-count
cross-check, the host-speed correction, and the API-drift guard of the
traced run.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402

run.cap_threads()

import numpy as np  # noqa: E402

from spans import DriftError, Span, Tracer, resolve, self_times, wrapped  # noqa: E402
from workloads import WORKLOADS, grid_problems, reference_problems, reference_vertices  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny_run(w, traced: bool):
    """Two inputs, each hulled twice untraced (and twice traced)."""
    seeds = w.input_seeds(7)[:2]
    tracer = Tracer() if traced else None
    plain, ops = run.timed_ops(w, seeds, 0.0, 4, {}, tracer)
    return seeds, plain, ops, tracer


class MetricNames(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(set(WORKLOADS), set(run.WORKLOAD_NAMES))
        for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
            self.assertRegex(m["name"], NAME)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_every_layer_metric_has_a_prediction(self):
        rows = json.loads((HERE / "predictions.json").read_text())["rows"]
        self.assertEqual([r["metric"] for r in rows], list(run.PER_LAYER))
        targets = set(run.END_TO_END) | {"fail_rate"}
        for r in rows:
            self.assertIn(r["moves"], targets)
            self.assertLessEqual(set(r["on"]) | set(r["unmoved_on"]), set(WORKLOADS))

    def test_self_time_metrics_name_wrapped_spans(self):
        spans = {t[2] for t in run.WRAP_TARGETS} | {"robust.robust_hull"}
        self.assertLessEqual(set(run.SELF_TIME_METRICS), spans)
        self.assertLessEqual(set(run.SELF_TIME_METRICS.values()), set(run.PER_LAYER))


class HostSpeed(unittest.TestCase):
    def test_controls_scale_by_their_powers(self):
        at_ref = {name: [ref] for name, (ref, _) in run.CONTROLS.items()}
        self.assertAlmostEqual(run.host_speed(at_ref), 1.0)
        slow = {name: [ref, 2 * ref, 3 * ref] for name, (ref, _) in run.CONTROLS.items()}
        total = sum(power for _, power in run.CONTROLS.values())
        self.assertAlmostEqual(run.host_speed(slow), 0.5 ** total)


class TinyWorkloads(unittest.TestCase):
    def test_each_workload_checks_and_counts(self):
        for name, full in WORKLOADS.items():
            with self.subTest(workload=name):
                w = full.tiny()
                seeds, plain, traced, tracer = tiny_run(w, traced=True)
                ops = plain + traced
                run.check_ops(w, seeds, ops)
                self.assertEqual([op["error"] for op in ops], [None] * len(ops))
                self.assertEqual(run.count_mismatches(ops, tracer), [])
                metrics = run.layer_metrics(w, plain, traced, tracer)
                self.assertEqual(list(metrics), list(run.PER_LAYER))
                self.assertGreater(metrics["kernels.visible_flat_s"], 0.0)
                self.assertGreater(metrics["soa.visibility_tests"], 0)

    def test_count_cross_check_catches_a_changed_count(self):
        w = WORKLOADS["ball3d"].tiny()
        seeds, plain, _, _ = tiny_run(w, traced=False)
        self.assertEqual(run.count_mismatches(plain), [])
        plain[-1]["summary"].counts["visibility_tests"] += 1
        self.assertTrue(run.count_mismatches(plain))


class ReferenceChecks(unittest.TestCase):
    def test_rejects_a_wrong_vertex_set(self):
        w = WORKLOADS["sphere3d"].tiny()
        pts, hull_seed = w.make_input(3)
        from workloads import run_op, summarize
        s = summarize(w, run_op(w, pts, hull_seed), pts)
        ref = reference_vertices(w, pts)
        self.assertEqual(reference_problems(w, s, pts, ref), [])
        s.vertices = s.vertices[1:]
        problems = reference_problems(w, s, pts, ref)
        self.assertEqual(len(problems), 3)      # V != n, F != 2V-4, != Qhull

    def test_grid_rejects_off_face_and_short_area(self):
        side = 3
        # Two triangles covering the z=0 face only: the area falls short.
        face = np.array([[[0, 0, 0], [2, 0, 0], [2, 2, 0]],
                         [[0, 0, 0], [2, 2, 0], [0, 2, 0]]], dtype=float)
        self.assertIn("areas", grid_problems(face, side)[0])
        cube = np.concatenate([face, face[:, :, [2, 0, 1]], face[:, :, [1, 2, 0]]])
        cube = np.concatenate([cube, 2.0 - cube])
        self.assertEqual(grid_problems(cube, side), [])
        cube[0, 0] = [1, 1, 1]
        self.assertIn("off the cube faces", grid_problems(cube, side)[0])


class Tracing(unittest.TestCase):
    def test_missing_target_fails_before_wrapping(self):
        from repro.hull import soa
        before = soa.visible_flat
        targets = run.WRAP_TARGETS + (("repro.hull.soa", "SoAHullEngine.gone", "x", None),)
        with self.assertRaises(DriftError):
            with wrapped(Tracer(), targets):
                pass
        self.assertIs(soa.visible_flat, before)
        with self.assertRaises(DriftError):
            resolve("repro.hull.soa", "no_such_function")

    def test_expected_layer_without_calls_is_drift(self):
        w = WORKLOADS["ball3d"].tiny()
        seeds, plain, traced, tracer = tiny_run(w, traced=True)
        tracer.spans = [s for s in tracer.spans if s.name != "soa.pair_ridges"]
        with self.assertRaises(DriftError):
            run.layer_metrics(w, plain, traced, tracer)

    def test_self_time_subtracts_direct_children(self):
        spans = [Span("a", 0, 100), Span("b", 10, 40, parent=0),
                 Span("c", 20, 30, parent=1), Span("d", 50, 60, parent=0)]
        self.assertEqual(self_times(spans), [60, 20, 10, 10])


if __name__ == "__main__":
    unittest.main()
