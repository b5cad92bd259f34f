"""Unit tests for the failover planner."""

import pytest

from repro.network.graph import Network, network_from_links
from repro.planning import FailoverPlan, plan_link_failover, shortest_delay_path


@pytest.fixture
def diamond():
    """Two parallel routes a->d plus a slow bypass around (b, c)."""
    net = Network()
    for src, dst, delay in [
        ("a", "b", 1),
        ("b", "c", 1),
        ("c", "d", 1),
        ("b", "x", 1),
        ("x", "c", 2),
        ("a", "y", 3),
        ("y", "d", 3),
    ]:
        net.add_link(src, dst, capacity=1.0, delay=delay)
    return net


class TestShortestDelayPath:
    def test_prefers_low_delay(self, diamond):
        assert shortest_delay_path(diamond, "a", "d") == ["a", "b", "c", "d"]

    def test_avoids_forbidden_link(self, diamond):
        path = shortest_delay_path(diamond, "a", "d", forbidden_links=[("b", "c")])
        assert path == ["a", "b", "x", "c", "d"]

    def test_avoids_forbidden_nodes(self, diamond):
        path = shortest_delay_path(
            diamond, "a", "d", forbidden_links=[("b", "c")], forbidden_nodes=["x"]
        )
        assert path == ["a", "y", "d"]

    def test_unreachable_returns_none(self, diamond):
        assert shortest_delay_path(diamond, "d", "a") is None


class TestFailoverPlanner:
    def test_reroutes_around_failed_link(self, diamond):
        plan = plan_link_failover(diamond, ["a", "b", "c", "d"], ("b", "c"))
        assert plan is not None
        assert plan.backup_path == ("a", "b", "x", "c", "d")
        assert ("b", "c") not in list(
            zip(plan.backup_path, plan.backup_path[1:])
        )

    def test_slow_detour_is_consistent(self, diamond):
        # The bypass is slower than the failed segment, so Algorithm 1
        # accepts and the schedule is verified consistent.
        plan = plan_link_failover(diamond, ["a", "b", "c", "d"], ("b", "c"))
        assert plan.feasibility.feasible
        assert plan.consistent
        from repro.validate import verify_schedule

        assert verify_schedule(plan.instance, plan.result.schedule).ok

    def test_fast_detour_flagged_inconsistent(self):
        # The only detour is *faster* than the failed segment: rerouting
        # overtakes in-flight traffic on (c, d), which no schedule can fix.
        net = network_from_links(
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")], delay=1
        )
        plan = plan_link_failover(net, ["a", "b", "c", "d"], ("a", "b"))
        assert plan is not None
        assert plan.backup_path == ("a", "c", "d")
        assert not plan.consistent  # best-effort schedule, flagged honestly

    def test_link_not_on_path_rejected(self, diamond):
        with pytest.raises(ValueError):
            plan_link_failover(diamond, ["a", "b", "c", "d"], ("x", "c"))

    def test_no_backup_route(self):
        net = network_from_links([("a", "b"), ("b", "c")])
        assert plan_link_failover(net, ["a", "b", "c"], ("b", "c")) is None

    def test_source_adjacent_failure_uses_fresh_route(self, diamond):
        plan = plan_link_failover(diamond, ["a", "b", "c", "d"], ("a", "b"))
        assert plan is not None
        assert plan.backup_path[0] == "a" and plan.backup_path[-1] == "d"
