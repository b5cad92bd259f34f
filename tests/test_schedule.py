"""Unit tests for update schedules."""

import pytest

from repro.core.schedule import UpdateSchedule, schedule_from_rounds


def shifted(schedule, offset):
    """``schedule`` translated by ``offset`` time steps (Defs. 1-3 are
    invariant under it)."""
    start = None if schedule.start_time is None else schedule.start_time + offset
    return UpdateSchedule(
        times={node: when + offset for node, when in schedule.times.items()},
        start_time=start,
        feasible=schedule.feasible,
    )


def swapped(schedule, a, b):
    """``schedule`` with the times of ``a`` and ``b`` exchanged: a mutation
    a correct verifier rejects on a tightly scheduled update."""
    times = dict(schedule.times)
    times[a], times[b] = times[b], times[a]
    return UpdateSchedule(times=times, start_time=schedule.start_time, feasible=schedule.feasible)


def without(schedule, node):
    """``schedule`` with ``node`` dropped: its stale rule stays forever,
    which the verifier flags as a loop, black hole or incomplete schedule."""
    times = {n: t for n, t in schedule.times.items() if n != node}
    return UpdateSchedule(times=times, start_time=schedule.start_time, feasible=schedule.feasible)


class TestBasics:
    def test_makespan_counts_inclusive_steps(self):
        schedule = UpdateSchedule({"a": 0, "b": 3}, start_time=0)
        assert schedule.makespan == 4  # t0..t3

    def test_makespan_uses_start_time(self):
        schedule = UpdateSchedule({"a": 5}, start_time=3)
        assert schedule.makespan == 3  # t3, t4, t5

    def test_empty_schedule(self):
        schedule = UpdateSchedule({}, start_time=2)
        assert schedule.makespan == 0
        assert schedule.t0 == 2
        assert len(schedule) == 0

    def test_t0_defaults_to_earliest(self):
        schedule = UpdateSchedule({"a": 4, "b": 7})
        assert schedule.t0 == 4

    def test_update_before_start_rejected(self):
        with pytest.raises(ValueError):
            UpdateSchedule({"a": 1}, start_time=2)

    def test_non_integer_time_rejected(self):
        with pytest.raises(ValueError):
            UpdateSchedule({"a": 1.5})

    def test_contains_and_time_of(self):
        schedule = UpdateSchedule({"a": 1})
        assert "a" in schedule and "b" not in schedule
        assert schedule.time_of("a") == 1
        with pytest.raises(KeyError):
            schedule.time_of("b")


class TestRounds:
    def test_rounds_grouped_and_sorted(self):
        schedule = UpdateSchedule({"a": 2, "b": 0, "c": 2})
        assert schedule.rounds() == [(0, ("b",)), (2, ("a", "c"))]

    def test_schedule_from_rounds(self):
        schedule = schedule_from_rounds([["a", "b"], [], ["c"]], start_time=5)
        assert schedule.time_of("a") == 5
        assert schedule.time_of("c") == 7

    def test_schedule_from_rounds_rejects_duplicates(self):
        with pytest.raises(ValueError):
            schedule_from_rounds([["a"], ["a"]])


class TestTransforms:
    def test_shifted(self):
        schedule = UpdateSchedule({"a": 1, "b": 2}, start_time=1)
        moved = shifted(schedule, 10)
        assert moved.time_of("a") == 11
        assert moved.t0 == 11
        assert moved.makespan == schedule.makespan

    def test_as_dict_is_a_copy(self):
        schedule = UpdateSchedule({"a": 1})
        d = schedule.as_dict()
        d["a"] = 99
        assert schedule.time_of("a") == 1

    def test_feasible_flag_preserved(self):
        schedule = UpdateSchedule({"a": 1}, feasible=False)
        assert not shifted(schedule, 1).feasible
