"""Unit tests for Algorithm 1 (the tree feasibility check)."""

import pytest

from repro.core.instance import random_instance, reversal_instance, segmented_instance
from repro.core.optimal import optimal_schedule
from repro.core.tree import _segment_delays, check_update_feasibility
from repro.validate import verify_schedule


class TestExamples:
    def test_motivating_example_is_feasible(self, fig1_instance):
        result = check_update_feasibility(fig1_instance)
        assert result.feasible
        assert result.schedule is not None
        assert verify_schedule(fig1_instance, result.schedule).ok

    def test_slow_detour_feasible(self, tiny_instance):
        assert check_update_feasibility(tiny_instance).feasible

    def test_fast_shortcut_infeasible(self, shortcut_instance):
        result = check_update_feasibility(shortcut_instance)
        assert not result.feasible
        assert "a" in result.blocked
        assert "phi(p)" in result.reason or "cons" in result.reason

    def test_reversal_feasible(self):
        assert check_update_feasibility(reversal_instance(7)).feasible

    def test_nothing_to_update(self, fig1_instance):
        from repro.core.instance import instance_from_paths

        instance = instance_from_paths(
            fig1_instance.network, fig1_instance.old_path, fig1_instance.old_path
        )
        result = check_update_feasibility(instance)
        assert result.feasible
        assert result.schedule.makespan == 0

    def test_boolean_protocol(self, fig1_instance):
        assert check_update_feasibility(fig1_instance)


class TestSegmentDelays:
    def test_forward_crossing(self, fig1_instance):
        # v2's new edge jumps straight to the destination: phi(p)=1 vs the
        # old segment v2..v6 with phi(q)=4.
        phi_p, phi_q = _segment_delays(fig1_instance, "v2")
        assert (phi_p, phi_q) == (1, 4)

    def test_backward_crossing_has_no_old_segment(self, fig1_instance):
        phi_p, phi_q = _segment_delays(fig1_instance, "v3")  # points back to v2
        assert phi_q is None


class TestAgreementWithOPT:
    """Theorem 2: the walk decides feasibility for uniform link delays."""

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exact_search(self, seed):
        instance = random_instance(6, seed=seed)  # uniform delays
        tree = check_update_feasibility(instance)
        # A node budget, not a clock: every draw proves within 33 nodes.
        opt = optimal_schedule(instance, node_budget=1000)
        assert opt.proven
        assert tree.feasible == opt.feasible

    @pytest.mark.parametrize("seed", range(8))
    def test_segmented_instances_feasible(self, seed):
        instance = segmented_instance(25, seed=seed, segments=2, max_segment_length=5)
        assert check_update_feasibility(instance).feasible

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_schedules_are_valid(self, seed):
        instance = random_instance(7, seed=50 + seed)
        result = check_update_feasibility(instance)
        if result.feasible:
            assert verify_schedule(instance, result.schedule).ok
