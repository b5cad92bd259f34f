"""Unit and property tests for Algorithm 2 (the greedy scheduler)."""

import pytest

from repro.core.greedy import EXACT, PAPER, greedy_schedule
from repro.core.instance import (
    random_instance,
    reversal_instance,
    segmented_instance,
)
from repro.validate import verify_schedule


class TestMotivatingExample:
    def test_finds_a_four_step_schedule(self, fig1_instance):
        result = greedy_schedule(fig1_instance)
        assert result.feasible
        assert result.schedule.makespan == 4
        assert verify_schedule(fig1_instance, result.schedule).ok

    def test_first_round_is_v2_only(self, fig1_instance):
        # The paper: "the dependency relation set at t0 is ... where we can
        # only update v2" (v3 would loop).
        result = greedy_schedule(fig1_instance)
        rounds = result.schedule.rounds()
        assert "v2" in rounds[0][1]
        assert "v3" not in rounds[0][1]
        assert "v4" not in rounds[0][1]
        assert "v5" not in rounds[0][1]

    def test_paper_mode_matches_exact_mode_here(self, fig1_instance):
        exact = greedy_schedule(fig1_instance, mode=EXACT)
        paper = greedy_schedule(fig1_instance, mode=PAPER)
        assert exact.schedule.as_dict() == paper.schedule.as_dict()

    def test_dependency_log(self, fig1_instance):
        result = greedy_schedule(fig1_instance, keep_dependency_log=True)
        assert result.dependency_log
        assert result.dependency_log[0][0] == 0

    def test_invalid_mode_rejected(self, fig1_instance):
        with pytest.raises(ValueError):
            greedy_schedule(fig1_instance, mode="wat")

    def test_t0_offset_respected(self, fig1_instance):
        result = greedy_schedule(fig1_instance, t0=10)
        assert result.schedule.t0 == 10
        assert min(result.schedule.times.values()) >= 10
        assert verify_schedule(fig1_instance, result.schedule).ok


class TestFeasibilityReporting:
    def test_infeasible_instance_is_flagged_and_completed(self, shortcut_instance):
        result = greedy_schedule(shortcut_instance)
        assert not result.feasible
        assert result.stalled_at is not None
        assert verify_schedule(shortcut_instance, result.schedule).schedule_complete
        assert not result.schedule.feasible

    def test_feasible_instance_has_clean_tracker(self, tiny_instance):
        result = greedy_schedule(tiny_instance)
        assert result.feasible
        assert result.violations == []


class TestAdversarialReversal:
    @pytest.mark.parametrize("count", [4, 6, 8, 10])
    def test_reversal_instances_scheduled_consistently(self, count):
        instance = reversal_instance(count)
        result = greedy_schedule(instance)
        verdict = verify_schedule(instance, result.schedule)
        assert verdict.ok == result.feasible
        assert verdict.schedule_complete


class TestRandomInstances:
    @pytest.mark.parametrize("seed", range(30))
    def test_claim_matches_oracle(self, seed):
        instance = random_instance(4 + seed % 8, seed=seed)
        result = greedy_schedule(instance)
        oracle = verify_schedule(instance, result.schedule)
        assert result.feasible == oracle.ok
        assert oracle.schedule_complete

    @pytest.mark.parametrize("seed", range(10))
    def test_paper_mode_is_loop_free(self, seed):
        """Theorem 3: Algorithm 4 guarantees loop-freedom in paper mode."""
        instance = random_instance(4 + seed % 8, seed=100 + seed)
        result = greedy_schedule(instance, mode=PAPER)
        oracle = verify_schedule(instance, result.schedule)
        if result.feasible:
            assert oracle.loop_free

    @pytest.mark.parametrize("seed", range(10))
    def test_segmented_instances_always_feasible(self, seed):
        instance = segmented_instance(30, seed=seed, segments=2, max_segment_length=6)
        result = greedy_schedule(instance)
        assert result.feasible
        assert verify_schedule(instance, result.schedule).ok


class TestDeterminism:
    def test_same_instance_same_schedule(self):
        instance = random_instance(9, seed=77)
        a = greedy_schedule(instance)
        b = greedy_schedule(instance)
        assert a.schedule.as_dict() == b.schedule.as_dict()
