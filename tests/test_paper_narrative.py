"""End-to-end pinning of the paper's Section II narrative.

Every claim the paper makes about its motivating example is asserted here
against the full stack: the combinatorial validators, the schedulers, the
protocols, and the emulated data plane.
"""

import random

import pytest

from repro.controller import (
    ConstantDelayModel,
    ControlChannel,
    Controller,
    perform_resilient_update,
    synchronized_clocks,
)
from repro.core.greedy import greedy_schedule
from repro.core.instance import motivating_example
from repro.core.optimal import optimal_schedule
from repro.core.schedule import UpdateSchedule
from repro.core.trace import trace_schedule
from repro.core.tree import check_update_feasibility
from repro.simulator import Simulator, build_dataplane
from repro.simulator.dataplane import install_config
from repro.updates import get_planner


@pytest.fixture
def instance():
    return motivating_example()


class TestSectionII:
    def test_claim_updating_only_v2_reroutes_directly_to_v6(self, instance):
        """'assume we first only update v2: hence, the subsequent flow is
        routed directly to v6 through the link (v2, v6)' -- and the old
        flow drains behind it without congestion."""
        result = trace_schedule(instance, UpdateSchedule({"v2": 0}))
        assert result.ok
        assert result.loads[("v2", "v6")]  # the new link carries flow

    def test_claim_three_loops_when_all_updated_at_t0(self, instance):
        """Fig. 2(a): 'there would be three forwarding loops'."""
        schedule = UpdateSchedule({v: 0 for v in instance.switches_to_update})
        result = trace_schedule(instance, schedule)
        assert len(result.loops) == 3

    def test_claim_fig2b_capacity_violation(self, instance):
        """Fig. 2(b): 'the capacity of the link (v4(t1), v3(t2)) cannot
        accommodate the flows from v1 and v3'."""
        schedule = UpdateSchedule({"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 1})
        result = trace_schedule(instance, schedule)
        violation = [e for e in result.congestion if e.link == ("v4", "v3")]
        assert violation and violation[0].load == pytest.approx(2.0)

    def test_claim_paper_timed_sequence_is_consistent(self, instance):
        """Fig. 1(e)-(h): v2@t0, v3@t1, {v1,v4}@t2, v5@t3 is congestion-
        and loop-free at any moment in time."""
        schedule = UpdateSchedule({"v2": 0, "v3": 1, "v1": 2, "v4": 2, "v5": 3})
        assert trace_schedule(instance, schedule).ok

    def test_claim_four_steps_is_optimal(self, instance):
        """No schedule completes the example in fewer than four steps."""
        result = optimal_schedule(instance)
        assert result.proven and result.makespan == 4

    def test_claim_feasibility_check_accepts(self, instance):
        assert check_update_feasibility(instance).feasible


class TestProtocolContrast:
    def test_chronus_never_adds_rules_tp_doubles_them(self, instance):
        chronus = get_planner("chronus").plan(instance)
        tp = get_planner("tp").plan(instance)
        assert chronus.rules.headroom == 0
        assert tp.rules.peak_rules >= 2 * tp.rules.baseline_rules

    def test_or_asynchrony_congests_where_chronus_does_not(self, instance):
        from repro.analysis.metrics import evaluate_schedule
        from repro.updates.order_replacement import realize_round_times

        chronus = greedy_schedule(instance)
        assert evaluate_schedule(instance, chronus.schedule).consistent

        plan = get_planner("or").plan(instance, rng=random.Random(3))
        congested = 0
        for seed in range(8):
            realized = realize_round_times(
                [list(nodes) for _, nodes in plan.rounds],
                rng=random.Random(seed),
                max_skew=3,
            )
            congested += not evaluate_schedule(instance, realized).consistent
        assert congested > 0


class TestDataPlaneExecution:
    def test_timed_execution_is_clean_on_the_wire(self, instance):
        """The whole pipeline: schedule -> scheduled FlowMods -> fluid data
        plane; no link ever exceeds capacity and delivery never stops for
        longer than the path-delay gap."""
        sim = Simulator()
        plane = build_dataplane(sim, instance.network, delay_scale=1.0)
        install_config(plane, instance)
        rng = random.Random(5)
        channel = ControlChannel(
            sim, ConstantDelayModel(0.002), ConstantDelayModel(0.02), rng=rng
        )
        clocks = synchronized_clocks(instance.network.switches, 1e-6, rng=rng)
        controller = Controller(sim, channel, clocks)
        for switch in plane.switches.values():
            controller.manage(switch)
        plane.inject_flow("v1", "h1", "v6", rate=1.0)
        sim.run(until=3.0)

        schedule = greedy_schedule(instance).schedule
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="timed", time_unit=1.0, start_at=4.0,
        )
        sim.run(until=25.0)

        assert trace.max_skew < 1e-5
        assert all(
            link.peak_utilization() <= 1.0 + 1e-9 for link in plane.links.values()
        )
        assert plane.switch("v6").delivered == pytest.approx(1.0)
        # The new path is in service, the old one fully drained.
        assert plane.link("v1", "v4").utilization == pytest.approx(1.0)
        assert plane.link("v1", "v2").utilization == 0.0
