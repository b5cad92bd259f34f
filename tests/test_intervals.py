"""Unit and equivalence tests for the interval-based flow tracker."""

import pytest

from repro.core.instance import random_instance, segmented_instance
from repro.core.intervals import FlowClass, IntervalTracker
from repro.core.schedule import UpdateSchedule
from repro.core.trace import trace_schedule
from repro.core.tracker import replay_schedule


class TestFlowClass:
    def test_departure_interval_shifts_by_offset(self):
        cls = FlowClass(lo=2, hi=5, nodes=("a", "b", "c"), offsets=(0, 1, 3))
        assert cls.departure_interval(0) == (2, 5)
        assert cls.departure_interval(2) == (5, 8)

    def test_open_intervals(self):
        cls = FlowClass(lo=None, hi=None, nodes=("a", "b"), offsets=(0, 1))
        assert cls.departure_interval(1) == (None, None)

    def test_is_empty(self):
        assert FlowClass(lo=3, hi=2, nodes=("a", "b"), offsets=(0, 1)).is_empty()
        assert not FlowClass(lo=2, hi=2, nodes=("a", "b"), offsets=(0, 1)).is_empty()

    def test_link_positions_cached(self):
        cls = FlowClass(lo=0, hi=0, nodes=("a", "b", "c"), offsets=(0, 1, 2))
        positions = cls.link_positions()
        assert positions[("a", "b")] == [0]
        assert cls.link_positions() is positions


class TestTrackerBasics:
    def test_initial_state_is_steady_old_path(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        assert len(tracker.classes) == 1
        assert tracker.classes[0].nodes == fig1_instance.old_path
        assert tracker.ok

    def test_load_at_on_old_link(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        assert tracker.load_at("v1", "v2", -100) == 1.0
        assert tracker.load_at("v2", "v6", 0) == 0.0

    def test_rounds_must_be_chronological(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        tracker.apply_round(["v2"], 3)
        with pytest.raises(ValueError, match="chronolog"):
            tracker.apply_round(["v3"], 2)

    def test_double_update_rejected(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        tracker.apply_round(["v2"], 0)
        with pytest.raises(ValueError, match="already"):
            tracker.apply_round(["v2"], 1)

    def test_destination_update_rejected(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        with pytest.raises(ValueError, match="destination"):
            tracker.apply_round(["v6"], 0)

    def test_empty_round_rejected(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        with pytest.raises(ValueError):
            tracker.apply_round([], 0)


class TestPreviewSemantics:
    def test_preview_does_not_commit(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        before = len(tracker.classes)
        report = tracker.preview_round(["v2"], 0)
        assert report.ok
        assert len(tracker.classes) == before
        assert tracker.applied == {}

    def test_preview_detects_loop(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        report = tracker.preview_round(["v3"], 0)  # deflects into upstream v2
        assert report.loops

    def test_preview_detects_congestion(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        tracker.apply_round(["v1", "v2"], 0)
        report = tracker.preview_round(["v3", "v4", "v5"], 1)
        assert any(span.link == ("v4", "v3") for span in report.congestion)

    def test_clone_is_independent(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        clone = tracker.clone()
        clone.apply_round(["v2"], 0)
        assert tracker.applied == {}
        assert clone.applied == {"v2": 0}


class TestReplay:
    def test_paper_schedule_clean(self, fig1_instance, paper_schedule):
        tracker = replay_schedule(fig1_instance, paper_schedule)
        assert tracker.ok
        assert tracker.congested_timed_link_count() == 0

    def test_congested_timed_link_count(self, fig1_instance):
        schedule = UpdateSchedule({"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 1})
        tracker = replay_schedule(fig1_instance, schedule)
        assert tracker.congested_timed_link_count() >= 1


class TestEquivalenceWithUnitTracer:
    """The scalable tracker must agree with the quadratic oracle."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_schedules_agree(self, seed):
        import random

        rng = random.Random(seed)
        instance = random_instance(rng.randint(4, 9), seed=seed)
        nodes = list(instance.switches_to_update)
        times = {node: rng.randint(0, 6) for node in nodes}
        schedule = UpdateSchedule(times, start_time=0)
        oracle = trace_schedule(instance, schedule)
        tracker = replay_schedule(instance, schedule)

        assert (not oracle.congestion) == (not tracker.congestion_spans())
        assert (not oracle.loops) == (not tracker.loops)
        assert (not oracle.blackholes) == (not tracker.blackholes)

    @pytest.mark.parametrize("seed", range(8))
    def test_congested_link_counts_agree(self, seed):
        import random

        rng = random.Random(1000 + seed)
        instance = random_instance(rng.randint(5, 8), seed=900 + seed)
        nodes = list(instance.switches_to_update)
        times = {node: rng.randint(0, 4) for node in nodes}
        schedule = UpdateSchedule(times, start_time=0)
        oracle = trace_schedule(instance, schedule)
        tracker = replay_schedule(instance, schedule)
        if not oracle.loops:  # the oracle truncates loopy units' loads
            assert len(oracle.congested_timed_links) == tracker.congested_timed_link_count()

    def test_segmented_instance_agrees(self):
        instance = segmented_instance(20, seed=4, segments=2, max_segment_length=5)
        from repro.core.greedy import greedy_schedule

        schedule = greedy_schedule(instance).schedule
        assert trace_schedule(instance, schedule).ok
        assert replay_schedule(instance, schedule).ok
