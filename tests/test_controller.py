"""Unit tests for the control plane: channel, clocks, controller, executors."""

import random

import pytest

from repro.controller import (
    ConstantDelayModel,
    ControlChannel,
    Controller,
    DionysusDelayModel,
    UniformDelayModel,
    perform_resilient_update,
    synchronized_clocks,
)
from repro.controller.clock import SwitchClock
from repro.controller.messages import (
    BarrierRequest,
    FlowModAdd,
    FlowModModify,
    next_xid,
)
from repro.core.greedy import greedy_schedule
from repro.core.instance import motivating_example
from repro.simulator import FlowRule, Match, Simulator, build_dataplane
from repro.simulator.dataplane import install_config


class TestDelayModels:
    def test_constant(self):
        model = ConstantDelayModel(0.25)
        assert model.sample(random.Random(0)) == 0.25

    def test_uniform_in_range(self):
        model = UniformDelayModel(0.01, 0.02)
        rng = random.Random(1)
        for _ in range(50):
            assert 0.01 <= model.sample(rng) <= 0.02

    def test_dionysus_long_tail_capped(self):
        model = DionysusDelayModel(median=0.05, sigma=1.0, cap=0.5)
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(500)]
        assert max(samples) <= 0.5
        assert min(samples) > 0.0
        # Median in the right ballpark for a log-normal.
        samples.sort()
        assert 0.02 < samples[250] < 0.12


class TestClocks:
    def test_offset_mapping_roundtrip(self):
        clock = SwitchClock(offset=0.5)
        assert clock.local_time(10.0) == 10.5
        assert clock.true_time(10.5) == 10.0

    def test_synchronized_within_bound(self):
        clocks = synchronized_clocks(["a", "b", "c"], max_offset=1e-3, rng=random.Random(3))
        assert set(clocks) == {"a", "b", "c"}
        assert all(abs(c.offset) <= 1e-3 for c in clocks.values())


def build_world(install_delay=None, clock_offset=0.0):
    instance = motivating_example()
    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=1.0)
    install_config(plane, instance)
    channel = ControlChannel(
        sim,
        network_delay=ConstantDelayModel(0.001),
        install_delay=install_delay or ConstantDelayModel(0.01),
        rng=random.Random(0),
    )
    clocks = {name: SwitchClock(clock_offset) for name in instance.network.switches}
    controller = Controller(sim, channel, clocks)
    for switch in plane.switches.values():
        controller.manage(switch)
    plane.inject_flow(instance.source, "h1", "v6", rate=1.0)
    return instance, sim, plane, controller


class TestFlowModDelivery:
    def test_modify_applied_after_latency(self):
        instance, sim, plane, controller = build_world()
        xid = next_xid()
        controller.send_flow_mod(
            "v2",
            FlowModModify(xid=xid, rule_name="f", out_port=plane.port_of("v2", "v6")),
        )
        sim.run(until=1.0)
        applied = controller.apply_time("v2", xid)
        assert applied is not None
        assert applied == pytest.approx(0.011, abs=1e-6)

    def test_scheduled_execution_time_honoured(self):
        instance, sim, plane, controller = build_world(clock_offset=0.0)
        xid = next_xid()
        controller.send_flow_mod(
            "v2",
            FlowModModify(
                xid=xid, rule_name="f", out_port=plane.port_of("v2", "v6"),
                execute_at=5.0,
            ),
        )
        sim.run(until=10.0)
        assert controller.apply_time("v2", xid) == pytest.approx(5.0)

    def test_clock_offset_skews_scheduled_execution(self):
        instance, sim, plane, controller = build_world(clock_offset=0.25)
        xid = next_xid()
        controller.send_flow_mod(
            "v2",
            FlowModModify(
                xid=xid, rule_name="f", out_port=plane.port_of("v2", "v6"),
                execute_at=5.0,
            ),
        )
        sim.run(until=10.0)
        # Local clock runs 0.25s ahead: local 5.0 occurs at true 4.75.
        assert controller.apply_time("v2", xid) == pytest.approx(4.75)

    def test_add_installs_rule(self):
        instance, sim, plane, controller = build_world()
        rule = FlowRule("extra", Match(dst_prefix="zzz"), out_port=1)
        controller.send_flow_mod("v3", FlowModAdd(xid=next_xid(), rule=rule))
        sim.run(until=1.0)
        assert "extra" in plane.switch("v3").table


class TestBarriers:
    def test_barrier_waits_for_prior_flowmods(self):
        instance, sim, plane, controller = build_world(
            install_delay=ConstantDelayModel(0.5)
        )
        xid = next_xid()
        controller.send_flow_mod(
            "v2",
            FlowModModify(xid=xid, rule_name="f", out_port=plane.port_of("v2", "v6")),
        )
        replies = []
        controller.send_barrier("v2", lambda reply: replies.append(sim.now))
        sim.run(until=5.0)
        assert len(replies) == 1
        # Reply cannot precede the 0.5 s rule installation.
        assert replies[0] > 0.5

    def test_barrier_on_idle_switch_is_fast(self):
        instance, sim, plane, controller = build_world()
        replies = []
        controller.send_barrier("v4", lambda reply: replies.append(sim.now))
        sim.run(until=1.0)
        assert len(replies) == 1
        assert replies[0] < 0.1


class TestExecutors:
    def test_timed_update_executes_at_schedule(self):
        instance, sim, plane, controller = build_world()
        schedule = greedy_schedule(instance).schedule
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="timed", time_unit=1.0, start_at=2.0,
        )
        sim.run(until=20.0)
        assert set(trace.applied) == set(instance.switches_to_update)
        assert trace.max_skew == pytest.approx(0.0, abs=1e-9)
        # No link ever exceeded its capacity.
        peak = max(plane.links[l].peak_utilization() for l in plane.links)
        assert peak <= 1.0 + 1e-9
        assert plane.switch("v6").delivered == pytest.approx(1.0)

    def test_round_update_orders_rounds(self):
        instance, sim, plane, controller = build_world(
            install_delay=UniformDelayModel(0.05, 0.4)
        )
        schedule = greedy_schedule(instance).schedule
        finished = []
        perform_resilient_update(
            controller, plane, instance, schedule, strategy="rounds",
            time_unit=0.5, on_finish=finished.append,
        )
        sim.run(until=60.0)
        assert finished
        trace = finished[0]
        rounds = schedule.rounds()
        for (t1, nodes1), (t2, nodes2) in zip(rounds, rounds[1:]):
            latest_first = max(trace.applied[n] for n in nodes1)
            earliest_second = min(trace.applied[n] for n in nodes2)
            assert latest_first < earliest_second
