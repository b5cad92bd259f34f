"""Unit tests for OPT (exact search) against the brute-force oracle."""

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.instance import random_instance
from repro.core.optimal import exhaustive_schedule, optimal_schedule
from repro.validate import verify_schedule


class TestMotivatingExample:
    def test_optimum_is_four_steps(self, fig1_instance):
        result = optimal_schedule(fig1_instance)
        assert result.proven
        assert result.makespan == 4
        assert verify_schedule(fig1_instance, result.schedule).ok

    def test_matches_exhaustive(self, fig1_instance):
        brute = exhaustive_schedule(fig1_instance, max_makespan=5)
        assert brute is not None
        assert brute.makespan == 4


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_same_makespan_as_exhaustive(self, seed):
        instance = random_instance(6, seed=seed)
        # A node budget, not a clock: every draw proves within 33 nodes.
        result = optimal_schedule(instance, node_budget=1000)
        brute = exhaustive_schedule(instance, max_makespan=6)
        assert result.proven
        if brute is None:
            assert result.schedule is None or result.makespan > 6
        else:
            assert result.makespan == brute.makespan

    @pytest.mark.parametrize("seed", range(12))
    def test_never_worse_than_greedy(self, seed):
        instance = random_instance(7, seed=200 + seed)
        greedy = greedy_schedule(instance)
        result = optimal_schedule(instance, time_budget=10)
        if greedy.feasible and result.schedule is not None:
            assert result.makespan <= greedy.schedule.makespan

    @pytest.mark.parametrize("seed", range(12))
    def test_schedules_are_valid(self, seed):
        instance = random_instance(6, seed=400 + seed)
        result = optimal_schedule(instance, time_budget=10)
        if result.schedule is not None:
            assert verify_schedule(instance, result.schedule).ok


class TestEdgeCases:
    def test_nothing_to_update(self, fig1_instance):
        from repro.core.instance import instance_from_paths

        instance = instance_from_paths(
            fig1_instance.network,
            fig1_instance.old_path,
            fig1_instance.old_path,
        )
        result = optimal_schedule(instance)
        assert result.proven
        assert result.makespan == 0

    def test_infeasible_is_proven(self, shortcut_instance):
        result = optimal_schedule(shortcut_instance, time_budget=20)
        assert result.schedule is None
        assert result.proven
        assert result.feasible is False

    def test_budget_exhaustion_reports_unproven(self, fig1_instance):
        result = optimal_schedule(fig1_instance, time_budget=0.0)
        assert not result.proven

    def test_joint_only_round_found(self):
        # Seed 0 at n=6 needs {v1, v4} in one round although v1 alone would
        # congest -- the regression that motivated full subset branching.
        instance = random_instance(6, seed=0)
        result = optimal_schedule(instance, time_budget=20)
        brute = exhaustive_schedule(instance, max_makespan=4)
        assert brute is not None
        assert result.makespan == brute.makespan == 3
