"""Unit tests for multi-flow update scheduling."""

import random
import sys
from unittest import mock

import pytest

from repro.core.instance import instance_from_paths
from repro.core.multiflow import (
    MultiFlowUpdate,
    flow_link_intervals,
    greedy_multiflow,
    validate_multiflow,
)
from repro.core.intervals import IntervalTracker
from repro.core import tracker as tracker_module
from repro.core.schedule import UpdateSchedule
from repro.core.tracker import replay_schedule
from repro.network.graph import Network


def shared_link_network(capacity: float) -> Network:
    """Two flows funnelled through one shared middle link."""
    net = Network()
    for src, dst, cap in [
        ("a1", "m1", 2.0), ("b1", "m1", 2.0),
        ("m1", "m2", capacity),
        ("m2", "a2", 2.0), ("m2", "b2", 2.0),
        ("a1", "x", 2.0), ("x", "m1", 2.0),
    ]:
        net.add_link(src, dst, capacity=cap, delay=1)
    return net


def two_flow_update(capacity: float) -> MultiFlowUpdate:
    net = shared_link_network(capacity)
    flow_a = instance_from_paths(
        net, ["a1", "m1", "m2", "a2"], ["a1", "x", "m1", "m2", "a2"],
        demand=1.0, flow_name="A",
    )
    flow_b = instance_from_paths(
        net, ["b1", "m1", "m2", "b2"], ["b1", "m1", "m2", "b2"],
        demand=1.0, flow_name="B",
    )
    return MultiFlowUpdate(network=net, instances=[flow_a, flow_b])


class TestConstruction:
    def test_duplicate_flow_names_rejected(self):
        net = shared_link_network(2.0)
        inst = instance_from_paths(
            net, ["a1", "m1", "m2", "a2"], ["a1", "m1", "m2", "a2"], flow_name="A"
        )
        with pytest.raises(ValueError, match="unique"):
            MultiFlowUpdate(network=net, instances=[inst, inst])

    def test_foreign_network_rejected(self):
        net = shared_link_network(2.0)
        other = shared_link_network(2.0)
        inst = instance_from_paths(
            other, ["a1", "m1", "m2", "a2"], ["a1", "m1", "m2", "a2"], flow_name="A"
        )
        with pytest.raises(ValueError, match="share the network"):
            MultiFlowUpdate(network=net, instances=[inst])

    def test_instance_lookup(self):
        update = two_flow_update(2.0)
        assert update.instance("A").flow.name == "A"
        with pytest.raises(KeyError):
            update.instance("Z")


class TestValidation:
    def test_joint_steady_state_within_capacity_is_clean(self):
        update = two_flow_update(2.0)
        schedules = {
            "A": UpdateSchedule({"x": 0, "a1": 1}, start_time=0),
            "B": UpdateSchedule({}, start_time=0),
        }
        report = validate_multiflow(update, schedules)
        assert report.ok

    def test_undersized_shared_link_is_flagged(self):
        # Capacity 1 cannot hold both steady flows on (m1, m2).
        update = two_flow_update(1.0)
        schedules = {
            "A": UpdateSchedule({"x": 0, "a1": 1}, start_time=0),
            "B": UpdateSchedule({}, start_time=0),
        }
        report = validate_multiflow(update, schedules)
        assert not report.ok
        assert any(span.link == ("m1", "m2") for span in report.congestion)

    def test_missing_schedule_raises(self):
        update = two_flow_update(2.0)
        with pytest.raises(KeyError):
            validate_multiflow(update, {"A": UpdateSchedule({})})

    def test_flow_link_intervals_cover_paths(self):
        update = two_flow_update(2.0)
        tracker = IntervalTracker(update.instance("B"))
        intervals = flow_link_intervals(tracker)
        assert ("m1", "m2") in intervals
        assert intervals[("m1", "m2")][0][2] == 1.0  # demand


class TestSequentialGreedy:
    def test_two_flows_scheduled_jointly(self):
        update = two_flow_update(2.0)
        result = greedy_multiflow(update)
        assert result.feasible
        assert result.report.ok

    def test_background_blocks_overloading_detour(self):
        # Flow A's detour crosses x -> m1 -> m2; with the shared link at
        # capacity 1 the networks' steady state is already joint-infeasible
        # for both flows, which the final report must flag.
        update = two_flow_update(1.0)
        result = greedy_multiflow(update)
        assert not result.feasible

    def test_order_parameter(self):
        update = two_flow_update(2.0)
        result = greedy_multiflow(update, order=["B", "A"])
        assert set(result.schedules) == {"A", "B"}
        assert result.feasible

    def test_makespan_is_max_over_flows(self):
        update = two_flow_update(2.0)
        result = greedy_multiflow(update)
        spans = [r.schedule.makespan for r in result.results.values()]
        assert result.makespan == max(spans)


def long_shared_update(trunk_capacity: float, seed: int) -> MultiFlowUpdate:
    """Two 150-switch flows, each swapping a few switch pairs, that meet on
    a four-switch trunk: 300+ trajectory hops, so the default tracker is
    the array layout."""
    rng = random.Random(seed)
    net = Network()
    trunk = [f"T{i}" for i in range(4)]
    instances = []
    for name in "AB":
        chain = [f"{name}{i}" for i in range(150)]
        swapped = list(chain)
        for p in range(5, 146, 30):
            swapped[p + 1], swapped[p + 2] = swapped[p + 2], swapped[p + 1]
        old_path = chain + trunk + [f"{name}_dst"]
        new_path = swapped + trunk + [f"{name}_dst"]
        for path in (old_path, new_path):
            for src, dst in zip(path, path[1:]):
                if not net.has_link(src, dst):
                    shared = src in trunk or dst in trunk
                    net.add_link(
                        src,
                        dst,
                        capacity=trunk_capacity if shared else 2.0,
                        delay=rng.randint(1, 3),
                    )
        instances.append(instance_from_paths(net, old_path, new_path, flow_name=name))
    return MultiFlowUpdate(network=net, instances=instances)


class TestEitherLayout:
    """Multi-flow answers do not depend on which tracker layout replays."""

    @staticmethod
    def _run(update, threshold):
        with mock.patch.object(tracker_module, "ARRAY_TRACKER_MIN_HOPS", threshold):
            result = greedy_multiflow(update)
            rng = random.Random(7)
            drawn = {
                inst.flow.name: UpdateSchedule(
                    {node: rng.randint(0, 6) for node in inst.switches_to_update},
                    start_time=0,
                )
                for inst in update.instances
            }
            intervals = {
                name: flow_link_intervals(replay_schedule(update.instance(name), schedule))
                for name, schedule in result.schedules.items()
            }
            return (
                {name: r.schedule.times for name, r in result.results.items()},
                result.feasible,
                result.report,
                validate_multiflow(update, drawn),
                intervals,
            )

    @pytest.mark.parametrize(
        "update",
        [
            two_flow_update(1.0),
            two_flow_update(2.0),
            long_shared_update(2.5, seed=0),  # A's load leaves B no room: infeasible
            long_shared_update(3.0, seed=1),
        ],
        ids=["short-tight", "short", "long-tight", "long"],
    )
    def test_dict_and_array_layouts_agree(self, update):
        dict_run = self._run(update, sys.maxsize)
        array_run = self._run(update, 0)
        assert array_run == dict_run
        hops = min(len(i.old_path) + len(i.new_path) for i in update.instances)
        if hops >= tracker_module.ARRAY_TRACKER_MIN_HOPS:
            # The default run builds the array layout and answers the same.
            assert self._run(update, tracker_module.ARRAY_TRACKER_MIN_HOPS) == array_run
