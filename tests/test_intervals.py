"""Unit and equivalence tests for the interval-based flow tracker."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import random_instance, segmented_instance
from repro.core.intervals import FlowClass, IntervalTracker
from repro.core.schedule import UpdateSchedule
from repro.core.tracker import replay_schedule
from repro.validate import verify_schedule


def link_departure_spans(tracker, src, dst):
    """Departure intervals of all live classes on ``src -> dst``: a class
    emitted over ``[lo, hi]`` crossing at offset ``o`` departs over
    ``[lo + o, hi + o]``, open bounds staying open."""
    return [
        (
            None if cls.lo is None else cls.lo + offset,
            None if cls.hi is None else cls.hi + offset,
        )
        for cls, offset in tracker.crossings(src, dst)
    ]


def load_at(tracker, src, dst, time):
    """The tracked flow's load departing over ``src -> dst`` at ``time``,
    from its departure spans (background is not the flow's)."""
    return tracker.instance.demand * sum(
        (lo is None or lo <= time) and (hi is None or time <= hi)
        for lo, hi in link_departure_spans(tracker, src, dst)
    )


def preview(tracker, nodes, time):
    """The full report of updating ``nodes`` at ``time``, committing nothing.

    ``apply_round`` without its commit: the argument checks, the split and
    the congestion pass.  A refused ``probe_and_commit`` reports a witness
    of this report, an accepted one this report itself.
    """
    tracker._check_round_args(nodes, time)
    pieces, _trims, _deflected, removed, report = tracker._split(nodes, time)
    tracker._check_new_congestion(pieces, removed, report)
    return report


def undoable_commit(tracker, nodes, time):
    """``apply_round`` committed undoably, as the OPT search commits;
    returns ``(report, undo record)``."""
    tracker._check_round_args(nodes, time)
    pieces, trims, deflected, removed, report = tracker._split(nodes, time)
    tracker._check_new_congestion(pieces, removed, report)
    return report, tracker._commit(nodes, time, trims, deflected, removed, undoable=True)


def congested_timed_link_count(tracker):
    """Congested links of the time-extended network (Fig. 8's count)."""
    return sum(span.timed_link_count for span in tracker.congestion_spans())


def _tracker_class(layout):
    if layout == "array":
        from repro.core.intervals_array import ArrayIntervalTracker

        return ArrayIntervalTracker
    return IntervalTracker


class TestFlowClass:
    # A class emitted over [lo, hi] departs over a link at offset o during
    # [lo + o, hi + o]; open bounds stay open.  Both tracker layouts report
    # these spans through their ``crossings`` (``link_departure_spans``).

    def test_departure_interval_shifts_by_offset(self, tiny_instance):
        for layout in ("dict", "array"):
            tracker = _tracker_class(layout)(tiny_instance)
            tracker.apply_round(["a"], 2)  # emissions from 2 on take a -> c (delay 3)
            assert link_departure_spans(tracker, "a", "b") == [(None, 1)], layout
            assert link_departure_spans(tracker, "b", "c") == [(None, 2)], layout
            assert link_departure_spans(tracker, "a", "c") == [(2, None)], layout
            assert link_departure_spans(tracker, "c", "d") == [(None, 3), (5, None)], layout

    def test_open_intervals(self, tiny_instance):
        for layout in ("dict", "array"):
            tracker = _tracker_class(layout)(tiny_instance)
            assert link_departure_spans(tracker, "c", "d") == [(None, None)], layout

    def test_is_empty(self):
        assert FlowClass(lo=3, hi=2, nodes=("a", "b"), offsets=(0, 1)).is_empty()
        assert not FlowClass(lo=2, hi=2, nodes=("a", "b"), offsets=(0, 1)).is_empty()

    def test_link_positions_cached(self):
        # Links are the tracker's link ids; a revisited link lists every
        # position, ascending.
        cls = FlowClass(
            lo=0, hi=0, nodes=("a", "b", "a", "b"), offsets=(0, 1, 2, 3), links=(7, 8, 7)
        )
        positions = cls.link_positions()
        assert positions == {7: [0, 2], 8: [1]}
        assert cls.link_positions() is positions


class TestTrackerBasics:
    def test_initial_state_is_steady_old_path(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        assert len(tracker.classes) == 1
        assert tracker.classes[0].nodes == fig1_instance.old_path
        assert tracker.ok

    def test_load_at_on_old_link(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        assert load_at(tracker, "v1", "v2", -100) == 1.0
        assert load_at(tracker, "v2", "v6", 0) == 0.0

    @pytest.mark.parametrize("layout", ["dict", "array"])
    def test_load_at_leaves_background_out(self, fig1_instance, layout):
        # ``load_at`` is this flow's own load; background only enters the
        # capacity checks.
        layout_class = _tracker_class(layout)
        background = {("v1", "v2"): [(None, None, 0.5)], ("v2", "v6"): [(0, 9, 0.25)]}
        plain = layout_class(fig1_instance)
        loaded = layout_class(fig1_instance, background=background)
        for tracker in (plain, loaded):
            tracker.apply_round(["v2"], 0)
        for link in fig1_instance.network.links:
            for time in range(-3, 12):
                assert load_at(loaded, link.src, link.dst, time) == load_at(
                    plain, link.src, link.dst, time
                )
        assert load_at(loaded, "v1", "v2", -100) == 1.0

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
        report = preview(tracker, ["v2"], 0)
        assert report.ok
        assert len(tracker.classes) == before
        assert tracker.applied == {}

    def test_preview_detects_loop(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        report = preview(tracker, ["v3"], 0)  # deflects into upstream v2
        assert report.loops

    def test_preview_detects_congestion(self, fig1_instance):
        tracker = IntervalTracker(fig1_instance)
        tracker.apply_round(["v1", "v2"], 0)
        report = preview(tracker, ["v3", "v4", "v5"], 1)
        assert any(span.link == ("v4", "v3") for span in report.congestion)


class TestReplay:
    def test_paper_schedule_clean(self, fig1_instance, paper_schedule):
        tracker = replay_schedule(fig1_instance, paper_schedule)
        assert tracker.ok
        assert congested_timed_link_count(tracker) == 0

    def test_congested_timed_link_count(self, fig1_instance):
        schedule = UpdateSchedule({"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 1})
        tracker = replay_schedule(fig1_instance, schedule)
        assert congested_timed_link_count(tracker) >= 1


class TestEquivalenceWithUnitTracer:
    """The scalable tracker must agree with the independent verifier."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_schedules_agree(self, seed):
        import random

        rng = random.Random(seed)
        instance = random_instance(rng.randint(4, 9), seed=seed)
        nodes = list(instance.switches_to_update)
        times = {node: rng.randint(0, 6) for node in nodes}
        schedule = UpdateSchedule(times, start_time=0)
        oracle = verify_schedule(instance, schedule)
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
        oracle = verify_schedule(instance, schedule)
        tracker = replay_schedule(instance, schedule)
        if not oracle.loops:  # the oracle truncates loopy units' loads
            assert oracle.congested_timed_links == congested_timed_link_count(tracker)

    def test_segmented_instance_agrees(self):
        instance = segmented_instance(20, seed=4, segments=2, max_segment_length=5)
        from repro.core.greedy import greedy_schedule

        schedule = greedy_schedule(instance).schedule
        assert verify_schedule(instance, schedule).ok
        assert replay_schedule(instance, schedule).ok


def _layout(name):
    if name == "array":
        from repro.core.intervals_array import ArrayIntervalTracker

        return ArrayIntervalTracker
    return IntervalTracker


def _replayed(layout, instance, schedule, background):
    tracker = _layout(layout)(instance, t0=schedule.t0, background=background)
    for time, nodes in schedule.rounds():
        tracker.apply_round(nodes, time)
    return tracker


class TestSteadyOverlap:
    """An overload that never ends is reported even when every finite
    coordinate on its link lies before ``t0``."""

    STEADY = {("v1", "v2"): [(None, None, 0.5)]}

    def test_sweep_keeps_an_endless_overload_past_t0(self):
        from repro.core.intervals import _sweep_link

        # The live departures after Chronus' rounds on mixed_instance(9, 39).
        intervals = [(None, -4, 1.0), (-3, -3, 1.0), (-2, None, 1.0), (None, None, 0.5)]
        (span,) = _sweep_link(("v1", "v2"), 1.0, intervals, 0)
        assert (span.start, span.end, span.load) == (0, 1, 1.5)
        (late,) = _sweep_link(("v1", "v2"), 1.0, intervals, 7)
        assert (late.start, late.end) == (7, 8)
        # Nothing finite: the open ends stand either side of t0.
        (alone,) = _sweep_link(("a", "b"), 1.0, [(None, None, 1.0), (None, None, 0.5)], 5)
        assert (alone.start, alone.end) == (5, 6)

    @pytest.mark.parametrize("layout", ["dict", "array"])
    def test_greedy_does_not_lose_the_steady_overlap(self, layout, monkeypatch):
        from repro.core import tracker as tracker_module
        from repro.core.greedy import greedy_schedule
        from repro.experiments.sweep import mixed_instance

        if layout == "array":
            monkeypatch.setattr(tracker_module, "ARRAY_TRACKER_MIN_HOPS", 0)
        instance = mixed_instance(9, 39)
        initial = _layout(layout)(instance, background=self.STEADY)
        assert [span.link for span in initial.congestion_spans()] == [("v1", "v2")]
        result = greedy_schedule(instance, background=self.STEADY)
        verdict = verify_schedule(instance, result.schedule, background=self.STEADY)
        assert [(v.link, v.start) for v in verdict.congestion] == [(("v1", "v2"), 0)]
        assert not result.feasible
        replayed = _replayed(layout, instance, result.schedule, self.STEADY)
        assert [(s.link, s.start) for s in replayed.congestion_spans()] == [(("v1", "v2"), 0)]
        assert not replayed.ok

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["mixed", "random"]),
        size=st.integers(6, 14),
        seed=st.integers(0, 10_000),
        link_pick=st.integers(0, 10_000),
        load=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        greedy=st.booleans(),
        schedule_seed=st.integers(0, 10_000),
    )
    def test_tracker_and_verifier_agree_under_unbounded_background(
        self, kind, size, seed, link_pick, load, greedy, schedule_seed
    ):
        import random

        from repro.core.greedy import greedy_schedule
        from repro.experiments.sweep import mixed_instance

        if kind == "mixed":
            instance = mixed_instance(size, seed)
        else:
            instance = random_instance(size, seed=seed)
        path = instance.old_path
        link = (path[link_pick % (len(path) - 1)], path[link_pick % (len(path) - 1) + 1])
        background = {link: [(None, None, load)]}
        if greedy:
            schedule = greedy_schedule(instance, background=background).schedule
        else:
            rng = random.Random(schedule_seed)
            times = {node: rng.randint(0, 6) for node in instance.switches_to_update}
            schedule = UpdateSchedule(times, start_time=0)
        verdict = verify_schedule(instance, schedule, background=background)
        for layout in ("dict", "array"):
            tracker = _replayed(layout, instance, schedule, background)
            assert (not tracker.congestion_spans()) == verdict.congestion_free, layout
