"""``make_tracker``: which representation is built, and that it cannot matter.

The factory in :mod:`repro.core.tracker` is the only place a tracker class
is chosen; these tests pin the boundary of that choice and hold greedy,
replay and the metrics to the same bytes on either side of it.  A
representation is forced by moving the factory's threshold, which every
caller reads through ``make_tracker`` at call time.
"""

import sys

import pytest

import repro.core.tracker as tracker_module
from repro.analysis.metrics import evaluate_schedule
from repro.core.greedy import greedy_schedule
from repro.core.instance import (
    instance_from_paths,
    random_instance,
    reversal_instance,
    segmented_instance,
)
from repro.core.intervals import IntervalTracker
from repro.core.intervals_array import ArrayIntervalTracker
from repro.core.schedule import UpdateSchedule
from repro.core.tracker import ARRAY_TRACKER_MIN_HOPS, make_tracker, replay_schedule
from repro.core.tree import check_update_feasibility
from repro.service.workload import build_workload
from tests.test_greedy_engines import _assert_golden, _random, _segmented

FORCED = {"dict": (sys.maxsize, IntervalTracker), "array": (0, ArrayIntervalTracker)}


def _force(monkeypatch, representation):
    threshold, cls = FORCED[representation]
    monkeypatch.setattr(tracker_module, "ARRAY_TRACKER_MIN_HOPS", threshold)
    return cls


def _on_both(monkeypatch, fn):
    """``fn()`` under each forced representation: ``(dict result, array result)``."""
    out = []
    for representation in ("dict", "array"):
        with monkeypatch.context() as patch:
            _force(patch, representation)
            out.append(fn())
    return out


def _hops(instance):
    return len(instance.old_path) + len(instance.new_path)


def _service_intent(pods=32, pod_size=12):
    """One tenant's move with its partner's load on the shared crossover."""
    workload = build_workload(pods, pod_size, requests=1, mean_interarrival=1.0, seed=0)
    tenant, partner = workload.pods[0], workload.pods[1]
    instance = instance_from_paths(
        workload.network, list(tenant.path_a), list(tenant.path_b), demand=tenant.demand
    )
    background = {
        link: ((None, None, partner.demand),)
        for link in zip(partner.path_b, partner.path_b[1:])
        if link in tenant.footprint
    }
    assert background
    return instance, background


@pytest.mark.parametrize("representation", sorted(FORCED))
def test_golden_corpus_on_each_representation(representation, engine_goldens, monkeypatch):
    """All 213 greedy pins (no fixture regenerated) hold on this tracker."""
    cls = _force(monkeypatch, representation)
    assert type(make_tracker(reversal_instance(5))) is cls
    goldens = engine_goldens["greedy"]
    for seed in range(140):
        _assert_golden(_random(seed), goldens["random"][str(seed)], f"random {seed}")
    for seed in range(60):
        _assert_golden(_segmented(seed), goldens["segmented"][str(seed)], f"segmented {seed}")
    for count in range(4, 14):
        _assert_golden(
            reversal_instance(count), goldens["reversal"][str(count)], f"reversal {count}"
        )
    for key, instance in (
        ("reversal-8", reversal_instance(8)),
        ("random-0", _random(0)),
        ("segmented-0", _segmented(0)),
    ):
        _assert_golden(instance, goldens["paper"][key], f"paper {key}", mode="paper")


class TestBoundary:
    def test_paths_not_network_size_pick_the_class(self):
        under = segmented_instance(ARRAY_TRACKER_MIN_HOPS // 2 - 1, seed=5)
        at = segmented_instance(ARRAY_TRACKER_MIN_HOPS // 2, seed=5)
        assert _hops(under) == ARRAY_TRACKER_MIN_HOPS - 2
        assert _hops(at) == ARRAY_TRACKER_MIN_HOPS
        assert type(make_tracker(under)) is IntervalTracker
        assert type(make_tracker(at)) is ArrayIntervalTracker
        # A 12-hop intent on the 416-node service network is a short one.
        intent, background = _service_intent()
        assert len(intent.network) >= 2 * ARRAY_TRACKER_MIN_HOPS
        assert type(make_tracker(intent, background=background)) is IntervalTracker

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_same_result_either_side(self, offset, monkeypatch):
        instance = segmented_instance(ARRAY_TRACKER_MIN_HOPS // 2 + offset, seed=11)
        default = greedy_schedule(instance)
        on_dict, on_array = _on_both(monkeypatch, lambda: greedy_schedule(instance))
        assert on_dict == on_array == default
        assert default.feasible and default.violations == [] and default.stalled_at is None

    def test_every_factory_caller_follows_the_threshold(self, monkeypatch):
        instance = segmented_instance(30, seed=3)
        schedule = greedy_schedule(instance).schedule
        for representation in FORCED:
            with monkeypatch.context() as patch:
                cls = _force(patch, representation)
                assert type(replay_schedule(instance, schedule)) is cls
        feasibility = _on_both(monkeypatch, lambda: check_update_feasibility(instance))
        assert feasibility[0] == feasibility[1]
        assert feasibility[0].feasible


class TestSameResultOnBoth:
    def test_service_shaped_intent_with_background(self, monkeypatch):
        instance, background = _service_intent(pods=4, pod_size=6)
        on_dict, on_array = _on_both(
            monkeypatch, lambda: greedy_schedule(instance, t0=3, background=background)
        )
        assert on_dict == on_array
        assert on_dict.feasible and on_dict.schedule.t0 == 3

    def test_saturating_background_stalls_both_alike(self, monkeypatch):
        instance, background = _service_intent(pods=4, pod_size=6)
        full = {link: ((None, None, instance.network.capacity(*link)),) for link in background}
        on_dict, on_array = _on_both(
            monkeypatch, lambda: greedy_schedule(instance, background=full)
        )
        assert on_dict == on_array
        assert not on_dict.feasible

    def test_infeasible_instance_stalls_both_alike(self, shortcut_instance, monkeypatch):
        on_dict, on_array = _on_both(monkeypatch, lambda: greedy_schedule(shortcut_instance))
        assert on_dict == on_array
        assert not on_dict.feasible
        assert on_dict.stalled_at is not None
        assert on_dict.violations

    def test_long_schedule_scores_the_same(self, monkeypatch):
        # evaluate_schedule used to replay on the dict tracker whatever the
        # length; a 10 000-switch schedule took 10x the array replay.
        instance = segmented_instance(600, seed=600)
        schedule = greedy_schedule(instance).schedule
        assert type(replay_schedule(instance, schedule)) is ArrayIntervalTracker
        on_dict, on_array = _on_both(monkeypatch, lambda: evaluate_schedule(instance, schedule))
        assert on_dict == on_array
        assert on_dict.consistent

    def test_violating_schedule_scores_the_same(self, monkeypatch):
        instance = random_instance(12, seed=8)
        everything_at_once = UpdateSchedule(
            {node: 0 for node in instance.switches_to_update}, start_time=0
        )
        on_dict, on_array = _on_both(
            monkeypatch, lambda: evaluate_schedule(instance, everything_at_once)
        )
        assert on_dict == on_array
        assert not on_dict.consistent


class TestArguments:
    def test_t0_and_background_reach_the_tracker(self):
        instance, background = _service_intent(pods=4, pod_size=6)
        tracker = make_tracker(instance, t0=7, background=background)
        assert tracker.t0 == 7
        assert tracker.background == background

    def test_unknown_background_link_is_the_same_keyerror(self, monkeypatch):
        instance = reversal_instance(6)
        background = {("v1", "nope"): [(0, 1, 1.0)]}

        def message():
            with pytest.raises(KeyError) as caught:
                make_tracker(instance, background=background)
            return str(caught.value)

        on_dict, on_array = _on_both(monkeypatch, message)
        assert on_dict == on_array
        assert "non-existent link 'v1' -> 'nope'" in on_dict
        with pytest.raises(KeyError):
            greedy_schedule(instance, background=background)
