"""Property tests for multi-flow composition."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import instance_from_paths
from repro.core.multiflow import (
    MultiFlowUpdate,
    greedy_multiflow,
    validate_multiflow,
)
from repro.core.schedule import UpdateSchedule
from repro.core.trace import trace_schedule
from repro.network.graph import Network

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def disjoint_flows_network(flow_count: int) -> MultiFlowUpdate:
    """Flows on fully disjoint chains with private detours."""
    net = Network()
    instances = []
    for i in range(flow_count):
        a, b, c, d, x = (f"{n}{i}" for n in "abcdx")
        for src, dst, delay in [
            (a, b, 1), (b, c, 1), (c, d, 1), (a, x, 3), (x, c, 1),
        ]:
            net.add_link(src, dst, capacity=1.0, delay=delay)
        instances.append(
            instance_from_paths(net, [a, b, c, d], [a, x, c, d], flow_name=f"f{i}")
        )
    return MultiFlowUpdate(network=net, instances=instances)


class TestIndependenceOfDisjointFlows:
    @given(
        flow_count=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, **COMMON)
    def test_joint_verdict_equals_per_flow_verdicts(self, flow_count, seed):
        """Flows sharing no links validate jointly iff each validates alone."""
        update = disjoint_flows_network(flow_count)
        rng = random.Random(seed)
        schedules = {}
        per_flow_ok = True
        for inst in update.instances:
            times = {
                node: rng.randint(0, 4) for node in inst.switches_to_update
            }
            schedule = UpdateSchedule(times, start_time=0)
            schedules[inst.flow.name] = schedule
            per_flow_ok &= trace_schedule(inst, schedule).ok
        report = validate_multiflow(update, schedules)
        assert report.ok == per_flow_ok

    @given(flow_count=st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, **COMMON)
    def test_greedy_multiflow_solves_disjoint_flows(self, flow_count):
        update = disjoint_flows_network(flow_count)
        result = greedy_multiflow(update)
        assert result.feasible
        # Disjoint flows compose without stretching any schedule.
        for inst in update.instances:
            from repro.core.greedy import greedy_schedule

            alone = greedy_schedule(inst)
            joint = result.results[inst.flow.name]
            assert joint.schedule.makespan == alone.schedule.makespan


class TestJointSweepConsistency:
    def test_single_flow_multiupdate_matches_tracker(self):
        """With one flow, the joint validator reduces to the tracker."""
        from repro.core.instance import motivating_example
        from repro.core.tracker import replay_schedule

        instance = motivating_example()
        update = MultiFlowUpdate(network=instance.network, instances=[instance])
        schedule = UpdateSchedule(
            {"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 1}, start_time=0
        )
        report = validate_multiflow(update, {instance.flow.name: schedule})
        tracker = replay_schedule(instance, schedule)
        assert bool(report.congestion) == bool(tracker.congestion_spans())
        assert bool(report.loops[instance.flow.name]) == bool(tracker.loops)
