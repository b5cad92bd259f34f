"""A replay commits its rounds unchecked; a feasible greedy is its own measurement.

``replay_schedule`` builds the final flow state with ``commit_round`` (split
plus commit, no per-round congestion pass, no report) and reads every
violation off that state.  ``SharedEvaluation.greedy`` stores a feasible
greedy's metrics -- all zeros -- instead of having the sweep replay the
schedule.  Both are sound only if nothing a metric reads can tell the
difference, which is what these properties hold, on both trackers.
"""

import random
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import ScheduleMetrics, evaluate_schedule
from repro.core import tracker as tracker_module
from repro.core.greedy import greedy_schedule
from repro.core.instance import instance_from_paths, random_instance
from repro.core.intervals import IntervalTracker
from repro.core.intervals_array import ArrayIntervalTracker
from repro.core.schedule import UpdateSchedule
from repro.core.tracker import replay_schedule
from repro.experiments.sweep import mixed_instance
from repro.network.graph import Network
from repro.updates.registry import SharedEvaluation, UpdatePlan, get_planner
from tests.test_array_tracker import _class_entries
from tests.test_intervals_internals import _drawn_world

LAYOUTS = {"dict": IntervalTracker, "array": ArrayIntervalTracker}
#: ``make_tracker``'s threshold that files every instance under the layout.
THRESHOLD = {"dict": 1 << 30, "array": 0}


def _state(tracker):
    """Everything a metric or a verdict reads off a final flow state."""
    return {
        "classes": _class_entries(tracker),
        "applied": tracker.applied,
        "loops": tracker.loops,
        "blackholes": tracker.blackholes,
        "spans": tracker.congestion_spans(),
        "horizon": tracker.finite_drain_horizon(),
    }


def _detour_world(size, seed):
    """``random_instance(size)`` whose new path leaves through fresh switches
    on a few hops: units deflected to one before its own update is
    black-holed there."""
    base = random_instance(size, seed=seed)
    rng = random.Random(seed)
    network = Network()
    for link in base.network.links:
        network.add_link(link.src, link.dst, capacity=link.capacity, delay=link.delay)
    new_path = [base.new_path[0]]
    for index, (src, dst) in enumerate(zip(base.new_path, base.new_path[1:])):
        if rng.random() < 0.3:
            fresh = f"w{index}"
            network.add_link(src, fresh, capacity=1.0, delay=1)
            network.add_link(fresh, dst, capacity=1.0, delay=1)
            new_path.append(fresh)
        new_path.append(dst)
    return instance_from_paths(network, base.old_path, new_path), None


def _world(kind, size, seed, background_seed):
    if kind == "detour":
        return _detour_world(size, seed)
    return _drawn_world(kind, size, seed, background_seed)


def _violating_schedule(instance, seed):
    """Update times in random order: loops, congestion and, on detour
    worlds, black holes."""
    rng = random.Random(seed)
    nodes = list(instance.switches_to_update)
    rng.shuffle(nodes)
    t0 = rng.randint(-2, 1)
    return UpdateSchedule(
        {node: rng.randint(t0, 2 * len(nodes)) for node in nodes}, start_time=t0
    )


class TestCommitRound:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["random", "mixed", "detour"]),
        size=st.integers(6, 20),
        seed=st.integers(0, 10_000),
        background_seed=st.integers(0, 10_000),
        schedule_seed=st.integers(0, 10_000),
        loaded=st.booleans(),
    )
    def test_commit_only_replay_equals_apply_replay(
        self, kind, size, seed, background_seed, schedule_seed, loaded
    ):
        instance, background = _world(kind, size, seed, background_seed)
        background = background if loaded else None  # dyadic loads only
        schedule = _violating_schedule(instance, schedule_seed)
        for layout, tracker_class in LAYOUTS.items():
            applied = tracker_class(instance, t0=schedule.t0, background=background)
            committed = tracker_class(instance, t0=schedule.t0, background=background)
            for time, nodes in schedule.rounds():
                applied.apply_round(nodes, time)
                assert committed.commit_round(nodes, time) is None
            assert _state(committed) == _state(applied), layout
            with mock.patch.object(tracker_module, "ARRAY_TRACKER_MIN_HOPS", THRESHOLD[layout]):
                replayed = replay_schedule(instance, schedule, background=background)
            assert isinstance(replayed, tracker_class)
            assert _state(replayed) == _state(applied), layout

    def test_commit_round_checks_its_arguments(self):
        instance = mixed_instance(9, 39)
        for tracker_class in LAYOUTS.values():
            tracker = tracker_class(instance)
            node = instance.switches_to_update[0]
            tracker.commit_round([node], 3)
            for nodes, time in (([], 4), ([node], 4), ([instance.destination], 4)):
                try:
                    tracker.commit_round(nodes, time)
                except ValueError:
                    continue
                raise AssertionError((nodes, time))


class TestFeasibleGreedyIsMeasured:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["random", "mixed"]),
        size=st.integers(4, 16),
        seed=st.integers(0, 10_000),
        t0=st.integers(0, 3),
        layout=st.sampled_from(sorted(LAYOUTS)),
    )
    def test_feasible_greedy_replays_to_all_zeros(self, kind, size, seed, t0, layout):
        if kind == "mixed":
            instance = mixed_instance(size, seed)
        else:
            instance = random_instance(size, seed=seed)
        with mock.patch.object(tracker_module, "ARRAY_TRACKER_MIN_HOPS", THRESHOLD[layout]):
            result = greedy_schedule(instance, t0=t0)
            metrics = evaluate_schedule(instance, result.schedule)
        if result.feasible:
            assert metrics == ScheduleMetrics(result.makespan, 0, 0, 0, 0)
        # Whatever the greedy says, the shared answer is the replay's.
        shared = SharedEvaluation(instance)
        assert shared.greedy(t0).schedule == result.schedule
        chronus = get_planner("chronus")
        plan = UpdatePlan(scheme="chronus", schedule=result.schedule, instance=instance)
        assert shared.metrics(chronus, plan) == metrics
