"""Unit tests for the update planners (Chronus, TP, OR, OPT)."""

import random

import pytest

from repro.analysis.metrics import evaluate_schedule
from repro.core.instance import random_instance
from repro.core.rounds import greedy_loop_free_rounds
from repro.updates import (
    get_planner,
    minimize_rounds,
    realize_round_times,
    two_phase_congestion_spans,
)
from tests.test_rounds import rounds_are_loop_free
from repro.validate import verify_schedule


class TestChronusProtocol:
    def test_plan_is_consistent(self, fig1_instance):
        plan = get_planner("chronus").plan(fig1_instance)
        assert plan.feasible
        assert verify_schedule(fig1_instance, plan.schedule).ok

    def test_rule_accounting_only_modifies(self, fig1_instance):
        plan = get_planner("chronus").plan(fig1_instance)
        # All five switches have old rules: pure in-place modifications.
        assert plan.rules.modifies == 5
        assert plan.rules.installs == 0
        assert plan.rules.deletes == 0
        assert plan.rules.peak_rules == plan.rules.baseline_rules

    def test_infeasible_instance_noted(self, shortcut_instance):
        plan = get_planner("chronus").plan(shortcut_instance)
        assert not plan.feasible
        assert "best-effort" in plan.notes

    def test_install_counted_for_new_switches(self):
        from repro.core.instance import instance_from_paths
        from repro.network.graph import network_from_links

        net = network_from_links(
            [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")], delay=2
        )
        instance = instance_from_paths(net, ["a", "b", "d"], ["a", "c", "d"])
        plan = get_planner("chronus").plan(instance)
        assert plan.rules.installs == 1  # c
        assert plan.rules.modifies == 1  # a
        assert plan.rules.peak_rules - plan.rules.baseline_rules == 1


class TestTwoPhaseProtocol:
    def test_rule_overhead_doubles_tables(self, fig1_instance):
        plan = get_planner("tp").plan(fig1_instance)
        baseline = plan.rules.baseline_rules
        assert plan.rules.peak_rules >= 2 * baseline
        assert plan.rules.deletes == baseline

    def test_operations_count(self, fig1_instance):
        plan = get_planner("tp").plan(fig1_instance)
        # installs (5 union switches + the ingress stamp) + 5 deletes
        assert plan.rules.operations == 5 + 1 + 5

    def test_fig1_has_no_overtaking(self, fig1_instance):
        assert two_phase_congestion_spans(fig1_instance, flip_time=0) == []
        assert get_planner("tp").plan(fig1_instance).feasible

    def test_shortcut_overtakes(self, shortcut_instance):
        spans = two_phase_congestion_spans(shortcut_instance, flip_time=5)
        assert len(spans) == 1
        span = spans[0]
        assert span.link == ("c", "d")
        assert span.load == pytest.approx(2.0)
        # off_new=1, off_old=2: exactly one overlapping departure step.
        assert (span.start, span.end) == (6, 6)

    def test_flip_delay_validation(self):
        with pytest.raises(ValueError):
            get_planner("tp").plan(random_instance(6, seed=1), flip_delay=0)

    def test_two_rounds(self, fig1_instance):
        plan = get_planner("tp").plan(fig1_instance)
        assert plan.round_count == 2
        assert plan.rounds[1][1] == (fig1_instance.source,)


class TestOrderReplacement:
    def test_rounds_are_loop_free(self, fig1_instance):
        plan = get_planner("or").plan(fig1_instance, rng=random.Random(1))
        rounds = [list(nodes) for _, nodes in plan.rounds]
        assert rounds_are_loop_free(fig1_instance, rounds)

    def test_exact_never_more_rounds_than_greedy(self):
        for seed in range(6):
            instance = random_instance(8, seed=seed)
            exact = minimize_rounds(instance, time_budget=5)
            greedy = greedy_loop_free_rounds(instance)
            if exact.proven:
                assert exact.round_count <= len(greedy)

    def test_fig1_minimum_is_three_rounds(self, fig1_instance):
        result = minimize_rounds(fig1_instance, time_budget=10)
        assert result.proven
        assert result.round_count == 3

    def test_realize_respects_barriers(self):
        rounds = [["a", "b"], ["c"], ["d", "e"]]
        realized = realize_round_times(rounds, rng=random.Random(2), max_skew=3)
        times = realized.as_dict()
        assert max(times["a"], times["b"]) < times["c"]
        assert times["c"] < min(times["d"], times["e"])

    def test_realized_schedule_flagged_unverified(self):
        realized = realize_round_times([["a"]], rng=random.Random(0))
        assert not realized.feasible

    def test_capacity_obliviousness_congests(self, fig1_instance):
        # Across several realisations, OR's schedule congests at least once
        # (the Fig. 6/7 phenomenon).
        plan = get_planner("or").plan(fig1_instance, rng=random.Random(3))
        congested = 0
        for seed in range(6):
            realized = realize_round_times(
                [list(nodes) for _, nodes in plan.rounds],
                rng=random.Random(seed),
                max_skew=3,
            )
            metrics = evaluate_schedule(fig1_instance, realized)
            congested += not metrics.congestion_free
        assert congested > 0


class TestOptimalProtocol:
    def test_plan_matches_opt(self, fig1_instance):
        plan = get_planner("opt").plan(fig1_instance, time_budget=20)
        assert plan.feasible
        assert plan.makespan == 4
        assert verify_schedule(fig1_instance, plan.schedule).ok

    def test_infeasible_falls_back_to_rounds(self, shortcut_instance):
        plan = get_planner("opt").plan(shortcut_instance, time_budget=20)
        assert not plan.feasible
        assert "no congestion-free schedule" in plan.notes
        assert len(plan.schedule) == len(shortcut_instance.switches_to_update)
