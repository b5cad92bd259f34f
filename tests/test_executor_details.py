"""Edge-case tests for the timed strategy and FlowMod plumbing."""

import random

import pytest

from repro.controller import (
    ConstantDelayModel,
    ControlChannel,
    Controller,
    perform_resilient_update,
)
from repro.controller.clock import SwitchClock
from repro.controller.executor import _update_message
from repro.controller.messages import FlowModAdd, FlowModDelete, FlowModModify, next_xid
from repro.core.greedy import greedy_schedule
from repro.core.instance import instance_from_paths, motivating_example
from repro.network.graph import network_from_links
from repro.simulator import Simulator, build_dataplane
from repro.simulator.dataplane import install_config


def build_world():
    instance = motivating_example()
    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=1.0)
    install_config(plane, instance)
    channel = ControlChannel(
        sim, ConstantDelayModel(0.001), ConstantDelayModel(0.01),
        rng=random.Random(0),
    )
    controller = Controller(sim, channel)
    for switch in plane.switches.values():
        controller.manage(switch)
    plane.inject_flow(instance.source, "h1", "v6", rate=1.0)
    return instance, sim, plane, controller


class TestUpdateMessageBuilder:
    def test_existing_rule_becomes_modify(self):
        instance, sim, plane, controller = build_world()
        message = _update_message(plane, instance, "v2", execute_at=None)
        assert isinstance(message, FlowModModify)
        assert message.out_port == plane.port_of("v2", "v6")

    def test_new_switch_becomes_add(self):
        net = network_from_links([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])
        instance = instance_from_paths(net, ["a", "b", "d"], ["a", "c", "d"])
        sim = Simulator()
        plane = build_dataplane(sim, net)
        install_config(plane, instance)
        message = _update_message(plane, instance, "c", execute_at=5.0)
        assert isinstance(message, FlowModAdd)
        assert message.execute_at == 5.0
        assert message.rule.out_port == plane.port_of("c", "d")

    def test_switch_without_new_rule_rejected(self):
        instance, sim, plane, controller = build_world()
        with pytest.raises(ValueError):
            _update_message(plane, instance, "v6", execute_at=None)


class TestTimedExecutorDefaults:
    def test_default_start_uses_lead_time(self):
        instance, sim, plane, controller = build_world()
        sim.run(until=2.0)
        schedule = greedy_schedule(instance).schedule
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="timed", time_unit=1.0, lead_time=0.5,
        )
        assert min(trace.planned.values()) == pytest.approx(2.5)
        sim.run(until=30.0)
        assert set(trace.applied) == set(instance.switches_to_update)
        assert trace.finished_at is not None

    def test_planned_times_follow_schedule_steps(self):
        instance, sim, plane, controller = build_world()
        schedule = greedy_schedule(instance).schedule
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="timed", time_unit=2.0, start_at=10.0,
        )
        for node, step in schedule.items():
            assert trace.planned[node] == pytest.approx(10.0 + 2.0 * step)


class TestDeletePath:
    def test_flow_mod_delete_removes_rule(self):
        instance, sim, plane, controller = build_world()
        xid = next_xid()
        controller.send_flow_mod(
            "v5", FlowModDelete(xid=xid, rule_name=instance.flow.name)
        )
        sim.run(until=1.0)
        assert instance.flow.name not in plane.switch("v5").table
        assert controller.apply_time("v5", xid) is not None

    def test_scheduled_delete(self):
        instance, sim, plane, controller = build_world()
        xid = next_xid()
        controller.send_flow_mod(
            "v5",
            FlowModDelete(xid=xid, rule_name=instance.flow.name, execute_at=5.0),
        )
        sim.run(until=10.0)
        assert controller.apply_time("v5", xid) == pytest.approx(5.0)
