"""Unit tests for the shared planner plumbing (rule accounting, plans)."""

import pytest

from repro.core.schedule import UpdateSchedule
from repro.updates import RuleAccounting, UpdatePlan, rule_accounting


class TestRuleAccounting:
    def test_operations_sum(self):
        rules = RuleAccounting(
            installs=3, modifies=2, deletes=1, baseline_rules=5, peak_rules=8
        )
        assert rules.operations == 6

    def test_headroom(self, fig1_instance):
        # The table space a transition needs beyond the steady state is
        # exactly what it installs: in place nothing on Fig. 1, TP a copy.
        for two_phase, extra in ((False, 0), (True, 5 + 1)):
            rules = rule_accounting(fig1_instance, two_phase)
            assert rules.peak_rules - rules.baseline_rules == rules.installs == extra

    def test_headroom_never_negative(self, fig1_instance):
        # Deletes come after the peak: no footprint sinks below the baseline.
        for two_phase in (False, True):
            rules = rule_accounting(fig1_instance, two_phase)
            assert rules.peak_rules >= rules.baseline_rules


class TestUpdatePlan:
    def make_plan(self):
        schedule = UpdateSchedule({"a": 0, "b": 1, "c": 1})
        return UpdatePlan(scheme="x", schedule=schedule)

    def test_round_count(self):
        assert self.make_plan().round_count == 2

    def test_makespan(self):
        assert self.make_plan().makespan == 2


class TestHelpers:
    def test_count_baseline_rules(self, fig1_instance):
        for two_phase in (False, True):
            rules = rule_accounting(fig1_instance, two_phase)
            assert rules.baseline_rules == 5  # v1..v5

    def test_union_rule_switches(self, fig1_instance):
        # Versioned copies on the union of both configurations + the stamp.
        assert rule_accounting(fig1_instance, two_phase=True).installs == 5 + 1

    def test_union_includes_new_only_switches(self):
        from repro.core.instance import instance_from_paths
        from repro.network.graph import network_from_links

        net = network_from_links([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])
        instance = instance_from_paths(net, ["a", "b", "d"], ["a", "c", "d"])
        rules = rule_accounting(instance, two_phase=True)
        assert rules.installs == 3 + 1  # a, b, c
        assert rules.deletes == rules.baseline_rules == 2  # a, b
