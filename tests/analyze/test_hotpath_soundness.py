"""The static/dynamic shape-soundness differential (experiment E21).

The hot-path analyzer reasons about kernel traffic through symbolic
shape annotations (``simplices=(F,d,d):float64`` ...); the runtime
recorder *observes* the concrete ``(shape, dtype)`` of every array that
crosses an instrumented kernel boundary during a real hull run (the
SoA engine's flat sweep and the object engines' conflict-set helpers).
Soundness (relative to the exercised code) means: every observed fact
is admitted by the static abstraction, with the symbolic dims bound
*jointly consistently* within each event -- ``F`` and ``d`` must take
one value across ``simplices``/``normals``/``offsets`` of the same
call.  A recorded fact the abstraction rejects would mean the
annotations in ``geometry/kernels.py``/``hull/common.py`` have rotted
against the code they describe, which is exactly when the analyzer's
verdicts stop being trustworthy.

(The reverse is not claimed: the abstraction deliberately admits more
than any finite run observes -- that is what makes it an abstraction.)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analyze import (
    ShapeRecorder,
    analyze_hotpaths,
    check_recorded_events,
    recording,
)
from repro.geometry import uniform_ball, uniform_cube
from repro.geometry.kernels import orient_batch
from repro.hull import parallel_hull, soa_hull
from repro.hull.point_parallel import point_parallel_hull

REPO = Path(__file__).resolve().parents[2]
SRC = str(REPO / "src" / "repro")


@pytest.fixture(scope="module")
def static_result():
    return analyze_hotpaths([SRC])


def _record(run_fn) -> ShapeRecorder:
    rec = ShapeRecorder()
    with recording(rec):
        run_fn()
    return rec


class TestShapeSoundnessDifferential:
    @pytest.mark.parametrize("dim,n,seed", [(2, 120, 3), (3, 90, 4)])
    def test_batch_hull_traffic_is_admitted(self, dim, n, seed, static_result):
        pts = uniform_ball(n, dim, seed=seed)
        rec = _record(lambda: parallel_hull(pts, seed=seed, engine="soa"))
        assert rec.events, "hull run hit no instrumented boundary (hooks broken?)"
        problems = check_recorded_events(static_result, rec)
        assert not problems, problems

    def test_point_parallel_traffic_is_admitted(self, static_result):
        pts = uniform_cube(100, 2, seed=11)
        rec = _record(lambda: point_parallel_hull(pts))
        assert rec.events, "hull run hit no instrumented boundary (hooks broken?)"
        problems = check_recorded_events(static_result, rec)
        assert not problems, problems

    def test_raw_kernel_sweep_traffic_is_admitted(self, static_result):
        rng = np.random.default_rng(7)
        simplices = rng.standard_normal((5, 3, 3))
        queries = rng.standard_normal((9, 3))
        rec = _record(lambda: orient_batch(simplices, queries))
        quals = {q for q, _ in rec.events}
        assert "repro.geometry.kernels.orient_batch" in quals
        assert not check_recorded_events(static_result, rec)

    def test_soa_engine_traffic_is_admitted(self, static_result):
        """The round-vectorized SoA engine's boundaries
        (``step_round``, ``visible_flat``, ``gather_segments``) record
        events the static abstraction admits."""
        pts = uniform_ball(140, 3, seed=9)
        rec = _record(lambda: soa_hull(pts, seed=9))
        quals = {q for q, _ in rec.events}
        assert "repro.hull.soa.SoAHullEngine.step_round" in quals
        problems = check_recorded_events(static_result, rec)
        assert not problems, problems

    def test_recorder_covers_every_annotated_boundary(self, static_result):
        """Every shape-annotated boundary fires somewhere in the suite's
        workload (the object drivers hit the conflict-set helpers; the
        SoA engine hits the flat-sweep kernels; the standalone
        ``orient_batch`` kernel pulls in ``batch_planes``)
        -- the differential is not vacuous."""
        pts = uniform_ball(150, 3, seed=5)
        rng = np.random.default_rng(7)

        def workload():
            parallel_hull(pts, seed=5)
            soa_hull(pts, seed=5)
            orient_batch(rng.standard_normal((5, 3, 3)),
                         rng.standard_normal((9, 3)))

        rec = _record(workload)
        quals = {q for q, _ in rec.events}
        annotated = {
            q for q, ann in static_result.annotations.items() if ann.shapes
        }
        assert annotated, "no shape-annotated boundaries in the tree?"
        assert annotated <= quals, sorted(annotated - quals)
        assert not check_recorded_events(static_result, rec)

    def test_joint_binding_actually_constrains(self, static_result):
        """Sanity of the check itself: a deliberately inconsistent event
        (F disagrees between simplices and normals) must be rejected."""
        ann = static_result.annotations["repro.geometry.kernels.batch_planes"]
        from repro.analyze.shapes import check_event

        bad = {
            "simplices": ((4, 3, 3), "float64"),
            "normals": ((5, 3), "float64"),
        }
        assert check_event(ann, bad), "inconsistent F went unnoticed"

    def test_scalar_run_records_nothing_outside_recording(self):
        rec = ShapeRecorder()
        pts = uniform_ball(60, 2, seed=1)
        soa_hull(pts, seed=1)  # no recording block
        assert rec.events == []
