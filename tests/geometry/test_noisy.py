"""Unit tests for the noisy predicate oracle (geometry.noisy)."""

import numpy as np
import pytest

from repro.geometry.noisy import ADAPTIVE, NoisyKernel, parse_votes


class TestConstruction:
    def test_p_range_validated(self):
        NoisyKernel(p=0.0)
        NoisyKernel(p=0.499)
        with pytest.raises(ValueError):
            NoisyKernel(p=0.5)  # majority vote carries no signal at 1/2
        with pytest.raises(ValueError):
            NoisyKernel(p=-0.01)

    def test_votes_validated(self):
        NoisyKernel(p=0.1, votes=1)
        NoisyKernel(p=0.1, votes=7)
        NoisyKernel(p=0.1, votes=ADAPTIVE)
        with pytest.raises(ValueError):
            NoisyKernel(p=0.1, votes=0)
        with pytest.raises(ValueError):
            NoisyKernel(p=0.1, votes=2)  # even: majority can tie
        with pytest.raises(ValueError):
            NoisyKernel(p=0.1, votes="several")

    def test_confidence_and_max_votes_validated(self):
        with pytest.raises(ValueError):
            NoisyKernel(p=0.1, confidence=0.0)
        with pytest.raises(ValueError):
            NoisyKernel(p=0.1, confidence=0.7)
        with pytest.raises(ValueError):
            NoisyKernel(p=0.1, max_votes=0)
        # Even caps are rounded up to odd so the capped vote cannot tie.
        assert NoisyKernel(p=0.1, max_votes=10).max_votes == 11

    def test_parse_votes(self):
        assert parse_votes("3") == 3
        assert parse_votes(5) == 5
        assert parse_votes("adaptive") == ADAPTIVE
        assert parse_votes(" Adaptive ") == ADAPTIVE
        with pytest.raises(ValueError):
            parse_votes("three")


class TestFlipModel:
    def test_deterministic_per_seed(self):
        a = NoisyKernel(p=0.3, seed=9)
        b = NoisyKernel(p=0.3, seed=9)
        sites = [f"f:{i}:{j}" for i in range(20) for j in range(5)]
        assert [a.flip_fires(s, 0) for s in sites] == [
            b.flip_fires(s, 0) for s in sites
        ]

    def test_flip_rate_near_p(self):
        nk = NoisyKernel(p=0.1, seed=4)
        fires = sum(nk.flip_fires(f"s{i}", 0) for i in range(2000))
        assert 140 <= fires <= 260  # Binomial(2000, 0.1), ~4.5 sigma

    def test_seed_and_epoch_change_flips(self):
        sites = [f"s{i}" for i in range(200)]
        base = [NoisyKernel(p=0.3, seed=1).flip_fires(s, 0) for s in sites]
        other_seed = [NoisyKernel(p=0.3, seed=2).flip_fires(s, 0) for s in sites]
        other_epoch = [
            NoisyKernel(p=0.3, seed=1, epoch=1).flip_fires(s, 0) for s in sites
        ]
        assert base != other_seed
        assert base != other_epoch

    def test_p_zero_never_lies(self):
        nk = NoisyKernel(p=0.0)
        assert not any(nk.flip_fires(f"s{i}", j) for i in range(50) for j in range(3))
        assert nk.decide("s", True) is True
        assert nk.decide("s", False) is False
        assert nk.decisions == 0  # the p=0 fast path is counter-free


class TestMajorityVote:
    def test_votes_reduce_error(self):
        # Residual error must fall sharply with k: Pr[majority wrong]
        # at p=0.2 is 0.2 (k=1), ~0.104 (k=3), ~0.058 (k=5).
        truth_sites = [f"q{i}" for i in range(3000)]

        def residual(votes: int) -> float:
            nk = NoisyKernel(p=0.2, votes=votes, seed=11)
            wrong = sum(nk.decide(s, True) is False for s in truth_sites)
            return wrong / len(truth_sites)

        e1, e3, e5 = residual(1), residual(3), residual(5)
        assert 0.17 < e1 < 0.23
        assert 0.08 < e3 < 0.13
        assert 0.03 < e5 < 0.08
        assert e5 < e3 < e1

    def test_vote_counters(self):
        nk = NoisyKernel(p=0.2, votes=3, seed=1)
        for i in range(100):
            nk.decide(f"s{i}", bool(i % 2))
        assert nk.decisions == 100
        assert nk.votes_cast == 300
        assert nk.vote_overhead() == 3.0
        assert 0 < nk.flips < 120  # ~0.2 * 300
        snap = nk.snapshot()
        assert snap["noisy_decisions"] == 100
        assert snap["noise_votes"] == 3

    def test_repetitions_draw_independent_errors(self):
        # With votes=3 at p=0.45 the three observations of one decision
        # must not be copies: if they replayed one coin, every decision
        # would be unanimous and the residual error would stay ~0.45
        # instead of dropping toward ~0.42; more tellingly, vote-level
        # flips would be a multiple of 3 per decision.  Count decisions
        # whose flip increment was not 0 or 3.
        nk = NoisyKernel(p=0.45, votes=3, seed=2)
        mixed = 0
        last = 0
        for i in range(400):
            nk.decide(f"s{i}", True)
            inc = nk.flips - last
            last = nk.flips
            if inc not in (0, 3):
                mixed += 1
        assert mixed > 200  # ~3/4 of decisions mix lies and truths


class TestAdaptive:
    def test_lead_formula(self):
        # (p/(1-p))^L <= confidence: p=0.05 -> ratio ~0.0526, L=3 at 1e-3.
        assert NoisyKernel(p=0.05, confidence=1e-3).lead_needed() == 3
        assert NoisyKernel(p=0.1, confidence=1e-3).lead_needed() == 4
        assert NoisyKernel(p=0.0).lead_needed() == 1

    def test_easy_decisions_stay_cheap(self):
        # At tiny p almost every adaptive decision stops after L votes.
        nk = NoisyKernel(p=0.001, votes=ADAPTIVE, seed=3)
        for i in range(200):
            nk.decide(f"s{i}", True)
        lead = nk.lead_needed()
        assert nk.vote_overhead() < lead + 0.5

    def test_cap_respected(self):
        nk = NoisyKernel(p=0.45, votes=ADAPTIVE, seed=3, max_votes=7)
        for i in range(300):
            nk.decide(f"s{i}", True)
        assert nk.snapshot()["noisy_peak_votes"] <= 7

    def test_adaptive_beats_fixed_error_at_same_p(self):
        sites = [f"s{i}" for i in range(2000)]
        fixed = NoisyKernel(p=0.2, votes=1, seed=5)
        adaptive = NoisyKernel(p=0.2, votes=ADAPTIVE, seed=5)
        fixed_wrong = sum(fixed.decide(s, True) is False for s in sites)
        adaptive_wrong = sum(adaptive.decide(s, True) is False for s in sites)
        assert adaptive_wrong < fixed_wrong / 5


class TestLadderPlumbing:
    def test_spawn_preserves_model(self):
        nk = NoisyKernel(p=0.05, votes=3, seed=8, confidence=1e-4, max_votes=21)
        child = nk.spawn(votes=7, epoch=4)
        assert (child.p, child.seed) == (0.05, 8)
        assert (child.votes, child.epoch) == (7, 4)
        assert (child.confidence, child.max_votes) == (1e-4, 21)
        assert child.decisions == 0  # fresh counters

    def test_rung_label_excludes_epoch(self):
        nk = NoisyKernel(p=0.05, votes=3, seed=8)
        assert nk.rung_label() == "noisy[p=0.05,votes=3]"
        assert nk.spawn(epoch=9).rung_label() == nk.rung_label()
        assert NoisyKernel(p=0.1, votes=ADAPTIVE).rung_label() == (
            "noisy[p=0.1,votes=adaptive]"
        )

    def test_escalation_levels(self):
        assert NoisyKernel(p=0.1, votes=1).escalation_levels() == [1, 3, ADAPTIVE]
        assert NoisyKernel(p=0.1, votes=3).escalation_levels() == [3, 7, ADAPTIVE]
        assert NoisyKernel(p=0.1, votes=ADAPTIVE).escalation_levels() == [ADAPTIVE]


class TestNoisyMasks:
    def _block(self):
        idx = [(0, 1, 2), (1, 2, 3)]
        cands = [np.array([4, 5, 6], dtype=np.int64),
                 np.array([4, 7], dtype=np.int64)]
        masks = [np.array([True, False, True]), np.array([False, False])]
        return idx, cands, masks

    def test_p_zero_returns_inputs_unchanged(self):
        idx, cands, masks = self._block()
        out = NoisyKernel(p=0.0).noisy_masks(idx, cands, masks)
        assert out[0] is masks[0] and out[1] is masks[1]

    def test_inputs_never_mutated(self):
        # The sign cache may hold the input arrays: noise must copy.
        idx, cands, masks = self._block()
        originals = [m.copy() for m in masks]
        NoisyKernel(p=0.49, seed=1).noisy_masks(idx, cands, masks)
        for m, o in zip(masks, originals):
            assert np.array_equal(m, o)

    def test_deterministic_and_site_keyed(self):
        idx, cands, masks = self._block()
        a = NoisyKernel(p=0.3, seed=2).noisy_masks(idx, cands, masks)
        b = NoisyKernel(p=0.3, seed=2).noisy_masks(idx, cands, masks)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        # Same (facet, rank) site, different seed -> different block
        # somewhere across a few hundred coins.
        big_cands = [np.arange(10, 400, dtype=np.int64)]
        big_masks = [np.ones(390, dtype=bool)]
        c = NoisyKernel(p=0.3, seed=2).noisy_masks([idx[0]], big_cands, big_masks)
        d = NoisyKernel(p=0.3, seed=3).noisy_masks([idx[0]], big_cands, big_masks)
        assert not np.array_equal(c[0], d[0])

    def test_empty_blocks_pass_through(self):
        idx = [(0, 1, 2)]
        cands = [np.zeros(0, dtype=np.int64)]
        masks = [np.zeros(0, dtype=bool)]
        out = NoisyKernel(p=0.4, seed=1).noisy_masks(idx, cands, masks)
        assert out[0].size == 0
