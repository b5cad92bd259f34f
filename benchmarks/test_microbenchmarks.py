"""Micro-benchmarks of the core building blocks.

These use pytest-benchmark's statistical timing (many iterations): the
scheduler's per-step machinery must stay fast for the Fig. 10 scaling story
to hold.
"""

import pytest

from repro.core.dependency import dependency_relations
from repro.core.greedy import greedy_schedule
from repro.core.instance import motivating_example, random_instance, segmented_instance
from repro.core.intervals import IntervalTracker
from repro.core.loops import creates_forwarding_loop
from repro.core.trace import trace_schedule
from repro.core.tracker import replay_schedule


@pytest.fixture(scope="module")
def medium_instance():
    return segmented_instance(400, seed=400)


class TestTrackerOps:
    def test_preview_round(self, benchmark):
        instance = motivating_example()
        tracker = IntervalTracker(instance)
        benchmark(lambda: tracker.preview_round(["v2"], 0))

    def test_apply_full_schedule(self, benchmark):
        instance = motivating_example()
        schedule = greedy_schedule(instance).schedule
        benchmark(lambda: replay_schedule(instance, schedule))

    def test_preview_on_long_chain(self, benchmark, medium_instance):
        tracker = IntervalTracker(medium_instance)
        node = medium_instance.switches_to_update[0]
        benchmark(lambda: tracker.preview_round([node], 0))


class TestAlgorithmSteps:
    def test_dependency_relations_fig1(self, benchmark):
        instance = motivating_example()
        pending = list(instance.switches_to_update)
        benchmark(lambda: dependency_relations(instance, pending, {}, 0))

    def test_loop_check_fig1(self, benchmark):
        instance = motivating_example()
        benchmark(lambda: creates_forwarding_loop(instance, {}, "v3", 0))

    def test_dependency_relations_medium(self, benchmark, medium_instance):
        pending = list(medium_instance.switches_to_update)
        benchmark(lambda: dependency_relations(medium_instance, pending, {}, 0))


class TestSchedulers:
    def test_greedy_small(self, benchmark):
        instance = random_instance(20, seed=1)
        benchmark(lambda: greedy_schedule(instance))

    def test_greedy_medium(self, benchmark, once, medium_instance):
        result = once(benchmark, greedy_schedule, medium_instance)
        assert result.feasible

    def test_greedy_large(self, benchmark, once):
        instance = segmented_instance(2000, seed=2000)
        result = once(benchmark, greedy_schedule, instance)
        assert result.feasible


class TestValidators:
    def test_unit_tracer_fig1(self, benchmark):
        instance = motivating_example()
        schedule = greedy_schedule(instance).schedule
        benchmark(lambda: trace_schedule(instance, schedule))

    def test_interval_validator_medium(self, benchmark, once, medium_instance):
        schedule = greedy_schedule(medium_instance).schedule
        tracker = once(benchmark, replay_schedule, medium_instance, schedule)
        assert tracker.ok
