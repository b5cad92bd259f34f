"""A feasible greedy is clean without a sweep of its final state.

Exact mode adopts every round from probes that were proven clean, and a
clean probe on a clean state leaves a clean state; so when no round stalled
and the initial state is clean, ``greedy_schedule`` reads ``feasible`` off
the initial state and never re-sweeps the final one (DESIGN.md 7.4).  A
congested initial state still gets the full check.  These draws hold the
answer to an independent replay of the schedule and, when feasible, to the
verifier: random, mixed and segmented worlds (the long ones on the array
layout), with background that is open, finite or over before ``t0``.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_schedule
from repro.core.instance import random_instance, segmented_instance
from repro.core.tracker import ARRAY_TRACKER_MIN_HOPS, make_tracker, replay_schedule
from repro.experiments.sweep import mixed_instance
from repro.validate import verify_schedule


def _background(instance, rng, t0):
    """Dyadic loads (any summation order gives the same float) on up to
    three links: open, finite, half-open or ended before ``t0``."""
    links = [(link.src, link.dst) for link in instance.network.links]
    background = {}
    for link in rng.sample(links, min(len(links), rng.randint(1, 3))):
        start = rng.randint(-6, 8)
        lo, hi = rng.choice(
            [
                (None, None),
                (start, start + rng.randint(0, 8)),
                (None, start),
                (start, None),
                (t0 - 9, t0 - 1 - rng.randint(0, 4)),
            ]
        )
        background[link] = [(lo, hi, rng.choice([0.25, 0.5, 1.0]))]
    return background


@st.composite
def worlds(draw):
    kind = draw(st.sampled_from(["random", "mixed", "segmented"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "random":
        capacity = draw(st.sampled_from([1.0, 2.0]))
        instance = random_instance(draw(st.integers(4, 20)), seed=seed, capacity=capacity)
    elif kind == "mixed":
        instance = mixed_instance(draw(st.integers(8, 30)), seed)
    else:
        instance = segmented_instance(
            draw(st.integers(20, 300)), seed=seed, segments=draw(st.integers(1, 6))
        )
    t0 = draw(st.sampled_from([0, 3]))
    background = None
    if draw(st.booleans()):
        background = _background(instance, random.Random(seed), t0)
    return instance, t0, background


def _judge(instance, t0, background):
    result = greedy_schedule(instance, t0=t0, background=background)
    if result.stalled_at is not None or result.violations:
        return result
    replayed = replay_schedule(instance, result.schedule, background=background)
    assert result.feasible == replayed.ok
    if result.feasible:
        assert verify_schedule(instance, result.schedule, background=background).ok
    return result


class TestFeasibleIsTheReplays:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(world=worlds())
    def test_feasible_equals_replay_and_verifier(self, world):
        _judge(*world)

    def test_fixed_worlds_take_each_branch(self):
        """A long segmented world (array layout), a clean start, and a start
        the background congests that the first round clears: the full check
        of the final state answers there."""
        long_world = segmented_instance(240, seed=3, segments=4)
        hops = len(long_world.old_path) + len(long_world.new_path)
        assert hops >= ARRAY_TRACKER_MIN_HOPS
        assert _judge(long_world, 3, None).feasible
        clean = random_instance(12, seed=5, capacity=2.0)
        assert _judge(clean, 0, None).feasible
        # Overloaded at t0 until the source's own update moves the flow off.
        background = {(clean.old_path[0], clean.old_path[1]): [(None, None, 1.5)]}
        assert not make_tracker(clean, background=background).ok
        cleared = _judge(clean, 0, background)
        assert cleared.schedule.times[clean.source] == 0 and cleared.feasible
