"""Soundness of OPT's loop-freedom lower bound (``repro.core.search``).

The bound says a pending backward-edge switch ``v`` cannot update before
``E(v) = min(time(p) - off(p)) + off(v)`` over the updated old-path
switches ``p`` upstream of it.  Two judges hold it to that:

* the lemma, on the dict and the array tracker over reachable states of
  small instances: whenever the bound forbids ``v`` at ``t``, the split
  that updates ``v`` at ``t`` -- alone, or with every other pending switch
  in the same round -- reports a loop;
* admissibility at the root: the bound never exceeds the optimum that
  brute force (``exhaustive_schedule``) finds.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import random_instance, reversal_instance
from repro.core.intervals import IntervalTracker
from repro.core.intervals_array import ArrayIntervalTracker
from repro.core.optimal import exhaustive_schedule, optimal_schedule
from repro.core.search import _NEVER, OptimalSearch

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _search(instance):
    return OptimalSearch(instance, 0, None, 12, 64, None)


def _earliest(instance, applied, t):
    """``E(v)`` per pending backward-edge switch, straight from its definition."""
    index, offsets = instance.old_path_index, instance.old_path_offsets
    updating = set(instance.switches_to_update)
    earliest = {}
    for v in instance.old_path:
        if v not in updating or v in applied:
            continue
        hop = index.get(instance.new_next_hop(v))
        if hop is None or hop >= index[v]:
            continue
        upstream = [p for p in instance.old_path[: index[v]] if p in updating]
        earliest[v] = offsets[v] + min(
            (
                (applied[p] if p in applied else max(t, earliest.get(p, t))) - offsets[p]
                for p in upstream
            ),
            default=math.inf,
        )
    return earliest


def _reachable_state(draw, tracker_class, instance):
    """A tracker after a drawn run of clean rounds, and the step it waits at."""
    tracker = tracker_class(instance)
    t = 0
    for _ in range(draw(st.integers(0, 4), label="rounds")):
        pending = [n for n in instance.switches_to_update if n not in tracker.applied]
        if not pending:
            break
        nodes = draw(st.lists(st.sampled_from(pending), min_size=1, unique=True), label="round")
        if tracker.preview_round(nodes, t).ok:
            tracker.apply_round(nodes, t)
        t += draw(st.integers(0, 2), label="wait")
    return tracker, t


class TestLemma:
    """Whenever the bound forbids ``v`` at ``t``, updating ``v`` at ``t`` loops."""

    @pytest.mark.parametrize("tracker_class", [IntervalTracker, ArrayIntervalTracker])
    @settings(max_examples=80, **COMMON)
    @given(data=st.data())
    def test_a_forbidden_update_loops(self, tracker_class, data):
        draw = data.draw
        count = draw(st.integers(3, 7), label="switches")
        instance = random_instance(count, seed=draw(st.integers(0, 10_000), label="seed"))
        tracker, t = _reachable_state(draw, tracker_class, instance)
        applied = tracker.applied
        earliest = _earliest(instance, applied, t)
        bound = max([t, *earliest.values()])
        found = _search(instance)._loop_bound(applied, t)
        assert found >= _NEVER if bound == math.inf else found == bound
        pending = [n for n in instance.switches_to_update if n not in applied]
        for v, when in earliest.items():
            if when <= t:
                continue
            for nodes in ([v], [v] + [n for n in pending if n != v]):
                *_, report = tracker._split(nodes, t)
                assert report.loops, f"{v} at t={t} with {nodes}"

    def test_the_lemma_is_not_vacuous(self):
        """A full reversal forbids every switch but the source at the root."""
        instance = reversal_instance(5)
        earliest = _earliest(instance, {}, 0)
        assert earliest and all(when > 0 for when in earliest.values())
        for tracker_class in (IntervalTracker, ArrayIntervalTracker):
            tracker = tracker_class(instance)
            for v in earliest:
                assert tracker._split([v], 0)[-1].loops


def _root_makespan_bound(instance):
    if not instance.switches_to_update:
        return 0  # the search returns the empty schedule before any bound
    return _search(instance)._loop_bound({}, 0) + 1


class TestAdmissibleAtTheRoot:
    """The root bound never exceeds the brute-force optimum."""

    @settings(max_examples=40, **COMMON)
    @given(
        count=st.integers(3, 6),
        seed=st.integers(0, 10_000),
        max_delay=st.sampled_from((None, 3)),
    )
    def test_drawn_instances(self, count, seed, max_delay):
        instance = random_instance(count, seed=seed, max_delay=max_delay)
        oracle = exhaustive_schedule(instance, max_makespan=6)
        if oracle is not None:
            assert _root_makespan_bound(instance) <= oracle.makespan

    @pytest.mark.parametrize("capacity", [1.0, 2.0])
    @pytest.mark.parametrize("count", range(3, 7))
    def test_reversals(self, count, capacity):
        instance = reversal_instance(count, capacity=capacity)
        oracle = exhaustive_schedule(instance, max_makespan=count)
        assert oracle is not None
        assert _root_makespan_bound(instance) <= oracle.makespan

    @pytest.mark.parametrize("count", range(4, 10))
    def test_reversals_are_proven_at_the_root(self, count):
        """Where the bound meets greedy's makespan, OPT stops at one node."""
        instance = reversal_instance(count)
        result = optimal_schedule(instance)
        assert result.proven and result.explored == 1
        assert _root_makespan_bound(instance) == result.makespan
