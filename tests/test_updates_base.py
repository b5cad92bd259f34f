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

    def test_headroom(self):
        rules = RuleAccounting(
            installs=5, modifies=0, deletes=0, baseline_rules=5, peak_rules=10
        )
        assert rules.headroom == 5

    def test_headroom_never_negative(self):
        rules = RuleAccounting(
            installs=0, modifies=5, deletes=2, baseline_rules=5, peak_rules=3
        )
        assert rules.headroom == 0


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
