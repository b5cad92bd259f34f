"""Property-based tests (hypothesis) on the core invariants.

These are the heavy guns of the suite: random instances and random
schedules drive the scalable interval tracker against the independent
verifier (:func:`repro.validate.verify_schedule`), and the schedulers' guarantees are checked on whatever hypothesis
dreams up.
"""

import random as stdlib_random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_schedule
from repro.core.instance import (
    instance_from_topology,
    random_instance,
    segmented_instance,
)
from repro.core.tracker import replay_schedule
from repro.core.schedule import UpdateSchedule
from repro.network.topology import two_path_topology
from repro.validate import verify_schedule
from tests.test_intervals import congested_timed_link_count
from tests.test_schedule import shifted

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def instance_and_schedule(draw):
    """A random two-path instance plus an arbitrary complete schedule."""
    count = draw(st.integers(min_value=3, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    max_delay = draw(st.sampled_from([None, 2, 3]))
    instance = random_instance(count, seed=seed, max_delay=max_delay)
    nodes = list(instance.switches_to_update)
    times = {
        node: draw(st.integers(min_value=0, max_value=8)) for node in nodes
    }
    return instance, UpdateSchedule(times, start_time=0)


class TestTrackerOracleEquivalence:
    @given(data=instance_and_schedule())
    @settings(max_examples=120, **COMMON)
    def test_violation_flags_agree(self, data):
        """The interval tracker and the verifier agree on every verdict."""
        instance, schedule = data
        oracle = verify_schedule(instance, schedule)
        tracker = replay_schedule(instance, schedule)
        assert bool(oracle.loops) == bool(tracker.loops)
        assert bool(oracle.blackholes) == bool(tracker.blackholes)
        assert bool(oracle.congestion) == bool(tracker.congestion_spans())

    @given(data=instance_and_schedule())
    @settings(max_examples=60, **COMMON)
    def test_congested_link_counts_agree_when_loop_free(self, data):
        instance, schedule = data
        oracle = verify_schedule(instance, schedule)
        if oracle.loops or oracle.blackholes:
            return  # the oracle truncates loopy/dropped units' loads
        tracker = replay_schedule(instance, schedule)
        assert oracle.congested_timed_links == congested_timed_link_count(tracker)


class TestGreedyGuarantees:
    @given(
        count=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=50_000),
    )
    @settings(max_examples=80, **COMMON)
    def test_greedy_claim_is_truthful(self, count, seed):
        """Theorem 3: a feasible-flagged schedule is congestion- and loop-free,
        and the scheduler always produces a complete schedule."""
        instance = random_instance(count, seed=seed)
        result = greedy_schedule(instance)
        oracle = verify_schedule(instance, result.schedule)
        assert oracle.schedule_complete
        assert result.feasible == oracle.ok

    @given(
        count=st.integers(min_value=10, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, **COMMON)
    def test_segmented_reversals_always_schedulable(self, count, seed):
        """Slow detours satisfy Algorithm 1's condition, so the greedy must
        find a consistent schedule."""
        instance = segmented_instance(
            count, seed=seed, segments=2, max_segment_length=5
        )
        result = greedy_schedule(instance)
        assert result.feasible
        assert verify_schedule(instance, result.schedule).ok


class TestScheduleAlgebra:
    @given(
        times=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=0, max_value=20),
            min_size=1,
        ),
        offset=st.integers(min_value=-5, max_value=5),
    )
    @settings(max_examples=60, **COMMON)
    def test_shift_preserves_structure(self, times, offset):
        schedule = UpdateSchedule(times)
        moved = shifted(schedule, offset)
        assert moved.makespan == schedule.makespan
        assert len(moved.rounds()) == len(schedule.rounds())

    @given(
        times=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.integers(min_value=0, max_value=9),
            min_size=1,
        )
    )
    @settings(max_examples=60, **COMMON)
    def test_rounds_partition_the_schedule(self, times):
        schedule = UpdateSchedule(times)
        flat = [node for _, nodes in schedule.rounds() for node in nodes]
        assert sorted(flat) == sorted(times)
        round_times = [when for when, _ in schedule.rounds()]
        assert round_times == sorted(round_times)


class TestTraceInvariants:
    @given(
        count=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=40, **COMMON)
    def test_empty_update_is_always_clean(self, count, seed):
        """Doing nothing never violates anything: the steady old path."""
        instance = random_instance(count, seed=seed)
        verdict = verify_schedule(instance, UpdateSchedule({}, start_time=0))
        assert verdict.loops == [] and verdict.blackholes == [] and verdict.congestion == []

    @given(
        count=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=5_000),
        when=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, **COMMON)
    def test_very_late_single_updates_are_order_free(self, count, seed, when):
        """A schedule translated far into the future behaves identically."""
        instance = random_instance(count, seed=seed)
        nodes = list(instance.switches_to_update)
        rng = stdlib_random.Random(seed)
        times = {node: when + rng.randint(0, 3) for node in nodes}
        base = UpdateSchedule(times, start_time=0)
        moved = shifted(base, 100)
        assert verify_schedule(instance, base).ok == verify_schedule(instance, moved).ok
