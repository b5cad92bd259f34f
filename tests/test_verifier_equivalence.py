"""The verifier must equal the plain every-emission replay, Verdict for Verdict.

:mod:`repro.validate.verifier` walks only the transient emissions one by
one and replicates the steady trajectory; ``tests/reference_verifier.py``
keeps the replay it replaced, which walks every emission and scans every
``(link, step)``.  Full dataclass equality is required -- ``loads``,
``check_end``, violation order and float values included -- over a seeded
corpus and a hypothesis-driven one, plus the two argument checks the split
added (negative ``extra_horizon``, background on a link that does not
exist).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_schedule
from repro.core.instance import instance_from_paths, random_instance
from repro.core.schedule import UpdateSchedule
from repro.experiments.sweep import mixed_instance
from repro.validate import verify_schedule, verify_two_phase
from tests.reference_verifier import (
    reference_verify_schedule,
    reference_verify_two_phase,
)
from tests.test_schedule import shifted, swapped, without

SIZES = (6, 9, 14, 25)
SCHEDULE_KINDS = ("chronus", "random", "swapped", "without", "negative-t0", "positive-t0")
BACKGROUND_KINDS = ("none", "open", "finite")


DETOUR = "detour"
SPARE = ("spare-a", "spare-b")


def build_instance(size, seed):
    """Alternate the two generators; odd seeds get multi-step link delays.

    Both route old and new path over the same switches, so every third
    seed splices in a switch only the new path visits (leave it out of the
    schedule and the steady flow is dropped there) and adds a link neither
    path uses.
    """
    if seed % 2:
        instance = random_instance(size, seed=seed, max_delay=3)
    else:
        instance = mixed_instance(size, seed)
    if seed % 3:
        return instance
    network = instance.network.copy()
    new_path = list(instance.new_path)
    at = len(new_path) // 2
    network.add_link(new_path[at - 1], DETOUR, capacity=1.0, delay=2)
    network.add_link(DETOUR, new_path[at], capacity=1.0, delay=1)
    network.add_link(*SPARE, capacity=1.0, delay=4)
    new_path.insert(at, DETOUR)
    return instance_from_paths(
        network, list(instance.old_path), new_path, demand=instance.demand
    )


def build_schedule(instance, kind, rng):
    """One of the schedule shapes the corpus crosses every instance with."""
    planned = greedy_schedule(instance).schedule
    nodes = list(planned.times)
    if kind == "chronus" or not nodes:
        return planned
    if kind == "random":
        return UpdateSchedule(
            {node: rng.randint(0, 2 * len(nodes)) for node in nodes}, start_time=0
        )
    if kind == "swapped":
        return swapped(planned, nodes[0], nodes[-1])
    if kind == "without":
        return without(planned, DETOUR if DETOUR in nodes else rng.choice(nodes))
    offset = -rng.randint(3, 40) if kind == "negative-t0" else rng.randint(3, 40)
    return shifted(planned, offset)


def build_background(instance, schedule, kind, rng):
    """Background on a few links, the one no path uses among them."""
    if kind == "none":
        return None
    links = [(link.src, link.dst) for link in instance.network.links]
    chosen = rng.sample(links, min(len(links), 4))
    if SPARE in links and SPARE not in chosen:
        chosen.append(SPARE)
    background = {}
    for link in chosen:
        if kind == "open":
            background[link] = [(None, None, rng.choice([0.25, 0.5, 1.0, 1.5]))]
        else:
            lo = schedule.t0 + rng.randint(-3, 6)
            background[link] = [
                (lo, lo + rng.randint(0, 12), rng.choice([0.25, 0.5, 1.0, 1.5])),
                (None, lo + 2, 0.25),
            ]
    return background


def corpus():
    """``(instance, schedule, background, extra_horizon)`` cases, seeded."""
    for size in SIZES:
        for seed in range(6):
            instance = build_instance(size, seed)
            for k, kind in enumerate(SCHEDULE_KINDS):
                for b, bg_kind in enumerate(BACKGROUND_KINDS):
                    rng = random.Random(f"{size}/{seed}/{kind}/{bg_kind}")
                    schedule = build_schedule(instance, kind, rng)
                    background = build_background(instance, schedule, bg_kind, rng)
                    yield instance, schedule, background, (0, 3)[(seed + k + b) % 2]


class TestScheduleEquivalence:
    def test_seeded_corpus_equals_reference(self):
        """Every case equal, and the corpus reaches every steady-tail shape."""
        seen = {
            "tail loop": 0,
            "tail blackhole": 0,
            "steady over-capacity": 0,
            "background-only congestion": 0,
            "violating": 0,
        }
        cases = 0
        for instance, schedule, background, extra in corpus():
            verdict = verify_schedule(instance, schedule, background, extra)
            expected = reference_verify_schedule(instance, schedule, background, extra)
            assert verdict == expected
            # Dict equality ignores order; the replay promises that too.
            assert list(verdict.loads) == list(expected.loads)
            for link, series in verdict.loads.items():
                assert list(series) == list(expected.loads[link])
            cases += 1

            tail = range(schedule.last_time, verdict.check_end + 1)
            if [v.emission for v in verdict.loops if v.emission in tail] == list(tail):
                seen["tail loop"] += 1
            if [v.emission for v in verdict.blackholes if v.emission in tail] == list(tail):
                seen["tail blackhole"] += 1
            for violation in verdict.congestion:
                if violation.end == verdict.check_end and violation.link in verdict.loads:
                    seen["steady over-capacity"] += 1
                if violation.link == SPARE:
                    seen["background-only congestion"] += 1
            if not verdict.ok:
                seen["violating"] += 1
        assert cases == len(SIZES) * 6 * len(SCHEDULE_KINDS) * len(BACKGROUND_KINDS)
        assert all(seen.values()), seen

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        size=st.integers(min_value=6, max_value=25),
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(SCHEDULE_KINDS),
        bg_kind=st.sampled_from(BACKGROUND_KINDS),
        extra=st.sampled_from((0, 3)),
    )
    def test_drawn_cases_equal_reference(self, size, seed, kind, bg_kind, extra):
        instance = build_instance(size, seed)
        rng = random.Random(seed)
        schedule = build_schedule(instance, kind, rng)
        background = build_background(instance, schedule, bg_kind, rng)
        assert verify_schedule(
            instance, schedule, background, extra
        ) == reference_verify_schedule(instance, schedule, background, extra)

    def test_empty_schedule_is_all_steady(self, tiny_instance):
        """No update time at all: the whole window is one old-path trajectory."""
        empty = UpdateSchedule({}, start_time=4)
        assert verify_schedule(tiny_instance, empty) == reference_verify_schedule(
            tiny_instance, empty
        )


class TestTwoPhaseEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    def test_seeded_corpus_equals_reference(self, size):
        congested = 0
        for seed in range(8):
            instance = build_instance(size, seed)
            rng = random.Random(f"tp/{size}/{seed}")
            for bg_kind in BACKGROUND_KINDS:
                flip_time = rng.randint(-10, 30)
                # t0 before, at and after the flip: the last leaves no old
                # emission in the window when the old path is short.
                for t0 in (None, flip_time - rng.randint(2, 9), flip_time, flip_time + 3):
                    anchor = UpdateSchedule({}, start_time=flip_time)
                    background = build_background(instance, anchor, bg_kind, rng)
                    extra = rng.choice((0, 3))
                    verdict = verify_two_phase(instance, flip_time, t0, background, extra)
                    expected = reference_verify_two_phase(
                        instance, flip_time, t0, background, extra
                    )
                    assert verdict == expected
                    assert list(verdict.loads) == list(expected.loads)
                    congested += not verdict.congestion_free
        assert congested


class TestArgumentChecks:
    """What the old replay let through: a vacuous verdict and a late KeyError."""

    def test_negative_extra_horizon_rejected(self, fig1_instance, paper_schedule):
        with pytest.raises(ValueError, match="extra_horizon"):
            verify_schedule(fig1_instance, paper_schedule, extra_horizon=-1000)
        with pytest.raises(ValueError, match="extra_horizon"):
            verify_two_phase(fig1_instance, 3, extra_horizon=-1)

    def test_background_on_missing_link_rejected_up_front(
        self, fig1_instance, paper_schedule
    ):
        background = {("nope", "x"): [(None, None, 0.5)]}
        message = "background load on non-existent link 'nope' -> 'x'"
        with pytest.raises(KeyError) as raised:
            verify_schedule(fig1_instance, paper_schedule, background=background)
        assert raised.value.args == (message,)
        with pytest.raises(KeyError) as raised:
            verify_two_phase(fig1_instance, 3, background=background)
        assert raised.value.args == (message,)
