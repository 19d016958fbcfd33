"""Noisy-oracle hulls: p=0 bit-identity, the certificate-gated
self-healing ladder, escalation-path normalization, and the validator's
discriminating power on the degenerate corpus."""

import numpy as np
import pytest

from repro.analysis.noisybench import _validator_corrupted, _validator_noisy
from repro.geometry import uniform_ball
from repro.geometry.noisy import ADAPTIVE, NoisyKernel
from repro.hull import parallel_hull, robust_hull, sequential_hull
from repro.hull.point_parallel import point_parallel_hull
from repro.hull.serialize import run_summary
from repro.runtime.procexec import ProcessExecutor


def _global_keys(run) -> set:
    """Facet keys in global-index space (rank space depends on the
    insertion order, which different ladder rungs may not share)."""
    order = np.asarray(run.order)
    return {tuple(sorted(int(order[r]) for r in f.indices)) for f in run.facets}


class TestBitIdentityAtPZero:
    """A p=0 NoisyKernel must be a bit-identical no-op wrapper: same
    facets, same fids, same counters, same work/span DAG."""

    @pytest.mark.parametrize(
        "driver", [sequential_hull, parallel_hull, point_parallel_hull]
    )
    def test_identical_runs(self, driver):
        pts = uniform_ball(70, 3, seed=2)
        order = np.random.default_rng(3).permutation(70)
        ref = driver(pts, order=order.copy())
        nk = NoisyKernel(p=0.0, votes=3, seed=9)
        run = driver(pts, order=order.copy(), kernel=nk)
        assert run.facet_keys() == ref.facet_keys()
        if hasattr(ref, "created"):  # point-parallel keeps no creation log
            assert [f.fid for f in run.created] == [f.fid for f in ref.created]
        assert run.counters.as_dict() == ref.counters.as_dict()
        assert nk.decisions == 0  # noise layer never even sampled

    def test_work_span_dag_identical(self):
        pts = uniform_ball(60, 3, seed=4)
        ref = parallel_hull(pts, seed=1)
        run = parallel_hull(pts, seed=1, kernel=NoisyKernel(p=0.0, seed=5))
        assert run.tracker.work == ref.tracker.work
        assert run.tracker.span == ref.tracker.span
        assert len(run.tracker) == len(ref.tracker)

    def test_snapshot_still_records_noisy_provenance(self):
        # Even a p=0 run is labeled: the archive must show which oracle
        # model produced it.
        run = parallel_hull(
            uniform_ball(40, 3, seed=0), seed=1, engine="soa",
            kernel=NoisyKernel(p=0.0, seed=5),
        )
        snap = run.exec_stats.kernel_stats
        assert snap["kernel"] == "noisy[soa[batch]]"
        assert snap["noise_p"] == 0.0


class TestNoisyRuns:
    def test_noise_actually_corrupts_at_high_p(self):
        # At p=0.1, votes=1 a 120-point run must not silently match the
        # exact hull (that would mean flips are not being applied).
        pts = uniform_ball(120, 3, seed=7)
        ref = parallel_hull(pts, seed=1)
        nk = NoisyKernel(p=0.1, votes=1, seed=3)
        try:
            run = parallel_hull(ref.points, order=np.arange(120), kernel=nk)
        except Exception:
            return  # lying oracle broke an invariant outright: corrupted
        assert run.facet_keys() != ref.facet_keys()
        assert nk.flips > 0

    def test_votes_repair_mild_noise(self):
        # p=0.001 with adaptive voting: per-decision error is driven far
        # below 1/decisions, so the hull comes out exact.
        pts = uniform_ball(80, 3, seed=8)
        ref = parallel_hull(pts, seed=1)
        nk = NoisyKernel(p=0.001, votes=ADAPTIVE, seed=2)
        run = parallel_hull(ref.points, order=np.arange(80), kernel=nk)
        assert run.facet_keys() == ref.facet_keys()
        assert nk.decisions > 0
        assert nk.vote_overhead() >= nk.lead_needed()

    def test_process_executor_rejected(self):
        pts = uniform_ball(40, 3, seed=0)
        with ProcessExecutor(n_workers=1) as ex:
            with pytest.raises(ValueError, match="ProcessExecutor"):
                parallel_hull(pts, seed=1, kernel=NoisyKernel(p=0.01), executor=ex)


class TestLadder:
    def test_ladder_lands_on_exact_hull(self):
        pts = uniform_ball(120, 3, seed=5)
        exact = robust_hull(pts, seed=2)
        nk = NoisyKernel(p=0.05, votes=1, seed=4)
        res = robust_hull(pts, seed=2, noise=nk)
        assert _global_keys(res.run) == _global_keys(exact.run)
        assert res.certificate is not None
        assert res.escalations[-1].endswith(":ok")
        # The surviving rung's kernel (with its vote counters) is kept.
        if res.mode.startswith("noisy["):
            assert res.noise is not None
            assert res.noise.decisions > 0
            assert res.mode == res.noise.rung_label()

    def test_escalation_escalates_votes(self):
        # Find a (seed, p) where votes=1 fails so the path has >= 2
        # rungs; the level sequence must be k -> 2k+1 -> adaptive.
        pts = uniform_ball(150, 3, seed=6)
        for nseed in range(10):
            nk = NoisyKernel(p=0.1, votes=1, seed=nseed)
            res = robust_hull(pts, seed=2, noise=nk)
            if len(res.escalations) > 1:
                break
        else:
            pytest.fail("p=0.1 votes=1 never failed across 10 noise seeds")
        labels = [e.split(":")[0].split("#")[0] for e in res.escalations]
        allowed = [
            "noisy[p=0.1,votes=1]", "noisy[p=0.1,votes=3]",
            "noisy[p=0.1,votes=adaptive]", "float", "exact", "sos", "joggle",
        ]
        # Path climbs the ladder monotonically.
        ranks = [allowed.index(lab) for lab in labels]
        assert ranks == sorted(ranks)

    def test_record_normalizes_repeat_attempts(self, monkeypatch):
        # Satellite: one rung:outcome entry per attempt, repeats get an
        # attempt counter instead of overwriting or duplicating labels.
        import repro.hull.robust as robust_mod

        real = robust_mod.parallel_hull

        def flaky(points, **kw):
            if isinstance(kw.get("kernel"), NoisyKernel):
                raise ValueError("injected")
            return real(points, **kw)

        monkeypatch.setattr(robust_mod, "parallel_hull", flaky)
        pts = uniform_ball(40, 3, seed=1)
        nk = NoisyKernel(p=0.01, votes=ADAPTIVE, seed=0)  # single noisy level
        res = robust_hull(pts, seed=0, noise=nk, noise_retries=3)
        assert res.mode == "float"
        assert res.escalations == [
            "noisy[p=0.01,votes=adaptive]:ValueError",
            "noisy[p=0.01,votes=adaptive]#2:ValueError",
            "noisy[p=0.01,votes=adaptive]#3:ValueError",
            "float:ok",
        ]

    def test_retries_use_fresh_epochs(self, monkeypatch):
        import repro.hull.robust as robust_mod

        seen: list[int] = []
        real = robust_mod.parallel_hull

        def spy(points, **kw):
            nk = kw.get("kernel")
            if isinstance(nk, NoisyKernel):
                seen.append(nk.epoch)
                raise ValueError("injected")
            return real(points, **kw)

        monkeypatch.setattr(robust_mod, "parallel_hull", spy)
        nk = NoisyKernel(p=0.01, votes=1, seed=0, epoch=5)
        robust_hull(uniform_ball(30, 3, seed=1), seed=0, noise=nk,
                    noise_retries=2)
        # 3 levels x 2 retries, every attempt at a distinct fresh epoch.
        assert seen == [5, 6, 7, 8, 9, 10]

    def test_exec_stats_escalations_merged_not_overwritten(self, monkeypatch):
        # Satellite: PR 7's executor-ladder provenance (process->thread
        # degradation) must survive the robust ladder's merge.
        import repro.hull.robust as robust_mod

        real = robust_mod.parallel_hull
        preseed = ["process:worker_death", "thread:ok"]

        def preseeded(points, **kw):
            run = real(points, **kw)
            run.exec_stats.escalations = list(preseed)
            return run

        monkeypatch.setattr(robust_mod, "parallel_hull", preseeded)
        pts = uniform_ball(40, 3, seed=1)
        res = robust_hull(pts, seed=0)
        assert res.escalations == ["float:ok"]
        assert res.run.exec_stats.escalations == preseed + ["float:ok"]
        # Same merge discipline on the noisy rung.
        res = robust_hull(
            pts, seed=0, noise=NoisyKernel(p=0.0, votes=1, seed=0)
        )
        assert res.run.exec_stats.escalations == preseed + res.escalations

    def test_noise_retries_validated(self):
        with pytest.raises(ValueError):
            robust_hull(
                uniform_ball(20, 2, seed=0), noise=NoisyKernel(p=0.01),
                noise_retries=0,
            )


class TestValidatorPower:
    """Satellite: the independent certificate checker must discriminate
    -- reject every corrupted certificate, and never accept a noisy hull
    that differs from the exact reference (p >= 0.05, votes=1, the full
    degenerate corpus)."""

    def test_rejects_all_corrupted_certificates(self):
        out = _validator_corrupted(range(1))
        assert out["checked"] >= 48  # 12 families x 4 corruption modes
        assert out["rejected"] == out["checked"]
        assert out["false_accepts"] == []

    def test_no_false_accepts_on_noisy_corpus_runs(self):
        out = _validator_noisy((0.05,), range(1))
        # Wrong hulls at p=0.05/votes=1 must be caught: every family run
        # either crashed (no certificate), was rejected, or the hull it
        # certified is exactly the noise-free reference.
        assert out["false_accepts"] == []
        assert out["checked"] + out["crashed_runs"] > 0
        assert out["rejected"] + out["crashed_runs"] > 0  # power, not vacuity


class TestSerializedNoise:
    def test_summary_surfaces_noise_block(self):
        pts = uniform_ball(50, 3, seed=3)
        run = parallel_hull(pts, seed=1, kernel=NoisyKernel(p=0.01, votes=3, seed=2))
        summary = run_summary(run)
        assert summary["kernel"]["kernel"] == "noisy[scalar]"
        noise = summary["noise"]
        assert noise["noise_p"] == 0.01
        assert noise["noise_votes"] == 3
        assert noise["noisy_decisions"] > 0
        assert noise["noisy_votes_cast"] == 3 * noise["noisy_decisions"]

    def test_summary_noise_none_on_clean_runs(self):
        run = parallel_hull(uniform_ball(30, 3, seed=3), seed=1)
        assert run_summary(run)["noise"] is None
