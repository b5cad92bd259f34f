"""Golden pins for the greedy scheduler (Algorithm 2).

``greedy_schedule`` used to carry three selectable engines; before the
superseded ones were deleted, their schedules were frozen into
``tests/data/engine_goldens.json`` at the revision that file records
(every pin was computed with the from-scratch ``preview_round`` engine,
the incremental engine on the dict tracker and the incremental engine on
the array tracker, and all three agreed).  These tests hold the one
remaining engine to those bytes -- schedule sha256, feasibility flag,
stall step and violation count -- and put every pinned schedule before
the independent judge, :func:`repro.validate.verifier.verify_schedule`.

A micro-regression guard keeps the n=2000 hot path honest: the engine
must stay well under the seed implementation's wall clock (which took
over a second at this size) so accidental O(n) regressions in the
pending-set or memo bookkeeping fail loudly rather than silently.
"""

import hashlib
import time

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.instance import (
    random_instance,
    reversal_instance,
    segmented_instance,
)
from repro.core.tracker import replay_schedule
from repro.core.serialization import schedule_to_json
from repro.trace import TraceSession, aggregate
from repro.validate.verifier import verify_schedule


def _random(seed):
    return random_instance(4 + seed % 13, seed=2500 + seed, max_delay=3)


def _segmented(seed):
    return segmented_instance(
        20 + seed % 21, seed=3100 + seed, segments=2 + seed % 3, max_segment_length=8
    )


def _assert_golden(instance, golden, label, mode="exact"):
    result = greedy_schedule(instance, mode=mode)
    digest = hashlib.sha256(schedule_to_json(result.schedule).encode()).hexdigest()
    assert digest == golden["sha256"], label
    assert result.feasible == golden["feasible"], label
    assert result.stalled_at == golden["stalled_at"], label
    assert len(result.violations) == golden["violations"], label
    if golden["feasible"]:
        assert verify_schedule(instance, result.schedule).ok, label
    return result


@pytest.mark.parametrize("seed", range(140))
def test_random_instances_byte_identical(seed, engine_goldens):
    golden = engine_goldens["greedy"]["random"][str(seed)]
    _assert_golden(_random(seed), golden, f"random seed={seed}")


@pytest.mark.parametrize("seed", range(60))
def test_segmented_instances_byte_identical(seed, engine_goldens):
    golden = engine_goldens["greedy"]["segmented"][str(seed)]
    _assert_golden(_segmented(seed), golden, f"segmented seed={seed}")


@pytest.mark.parametrize("count", range(4, 14))
def test_reversal_instances_byte_identical(count, engine_goldens):
    _assert_golden(
        reversal_instance(count),
        engine_goldens["greedy"]["reversal"][str(count)],
        f"reversal count={count}",
    )


@pytest.mark.parametrize(
    "key, instance",
    [
        ("reversal-8", reversal_instance(8)),
        ("random-0", _random(0)),
        ("segmented-0", _segmented(0)),
    ],
)
def test_paper_mode_byte_identical(key, instance, engine_goldens):
    golden = engine_goldens["greedy"]["paper"][key]
    _assert_golden(instance, golden, f"paper {key}", mode="paper")


@pytest.mark.parametrize("seed", range(0, 140, 7))
def test_incremental_dict_engine_byte_identical(seed, engine_goldens):
    """The dict tracker replays the pinned schedule to the pinned verdict."""
    instance = _random(seed)
    golden = engine_goldens["greedy"]["random"][str(seed)]
    result = _assert_golden(instance, golden, f"random seed={seed}")
    replay = replay_schedule(instance, result.schedule)
    assert replay.ok == (golden["violations"] == 0)


class TestScaleRegression:
    """Guards on the optimised hot path: a stopwatch with generous CI
    headroom, and a count that cannot flake."""

    def test_n2000_completes_fast_and_feasible(self):
        instance = segmented_instance(2000, seed=2000)
        start = time.perf_counter()
        result = greedy_schedule(instance)
        elapsed = time.perf_counter() - start
        assert result.feasible
        # The pre-optimisation implementation took >1.1s here; the engine
        # now runs in ~0.3s.  3s keeps slow CI machines out of the noise
        # while still catching an accidental return to the old complexity.
        assert elapsed < 3.0, f"greedy at n=2000 took {elapsed:.2f}s"

    @pytest.mark.parametrize("size", [2000, 20000])
    def test_probe_work_tracks_the_update_not_the_path(self, size):
        """What a probe looks at is bounded by the switches being rerouted.

        Links decided and class table entries read per probe, and runs
        walked per deflection, stay within a small multiple of
        ``len(switches_to_update) + segments`` at both sizes -- ten times
        the path changes none of them -- and a feasible plan with no
        congested probe expands no chain.  Any return to O(path) work per
        probe (the all-fresh-links pass decided ~1 850 links per probe at
        10 000 switches) fails this whatever the machine.
        """
        segments = 4
        instance = segmented_instance(size, seed=size, segments=segments)
        with TraceSession(scenario="unit", run_id="scale") as session:
            result = greedy_schedule(instance)
        profile = aggregate(session.tape)
        probes = profile["spans"]["greedy.select.tracker.probe"]["calls"]
        counters = profile["counters"]
        assert result.feasible
        assert probes >= len(instance.switches_to_update)
        bound = 2 * (len(instance.switches_to_update) + segments)
        assert counters["tracker.array.links_decided"] <= bound * probes
        assert counters["tracker.array.entries_read"] <= bound * probes
        assert (
            counters["tracker.array.deflect_runs"]
            <= bound * counters["tracker.array.deflections"]
        )
        assert "tracker.array.exact_sweeps" not in counters
        assert "tracker.array.chains_expanded" not in counters

    def test_a_deflection_walks_only_what_it_does_not_share(self):
        """Runs walked per deflection stay a few on 16 segments.

        A piece whose route rejoins its parent's copies the parent's tail
        instead of walking it (``tracker.array.tail_runs``); what it walks
        is the detour.  On this 10 000-switch, 16-segment plan a deflection
        walked 33.7 runs when every run was walked and walks 3.6 now (of
        13.0 it routes): 8 leaves room for a different draw, not for a
        return to walking the tail.  ``tracker.array.deflect_runs`` still
        counts every run a piece routes, walked or copied.
        """
        instance = segmented_instance(10000, seed=10000, segments=16)
        with TraceSession(scenario="unit", run_id="tails") as session:
            result = greedy_schedule(instance)
        counters = aggregate(session.tape)["counters"]
        assert result.feasible
        deflections = counters["tracker.array.deflections"]
        routed = counters["tracker.array.deflect_runs"]
        walked = routed - counters.get("tracker.array.tail_runs", 0)
        assert walked <= 8 * deflections, walked / deflections
        assert routed >= 2 * walked

    def test_no_class_is_materialised_on_the_greedy_and_replay_paths(self):
        """Classes are runs; the full-length view is for the exact search.

        Neither a 10 000-switch greedy plan nor the replay of its schedule
        builds one (``tracker.array.materialised`` stays 0), so neither
        holds or touches memory proportional to the path per class.  The
        counter is alive: asking for a view builds it once, and once only.
        """
        instance = segmented_instance(10000, seed=10000)
        with TraceSession(scenario="unit", run_id="runs") as session:
            result = greedy_schedule(instance)
            replayed = replay_schedule(instance, result.schedule)
            assert result.feasible and replayed.ok
        counters = aggregate(session.tape)["counters"]
        assert counters["tracker.array.deflections"] > 0
        assert "tracker.array.materialised" not in counters
        with TraceSession(scenario="unit", run_id="view") as session:
            cls = replayed.classes[-1]
            assert cls.view() is cls.view()
        assert aggregate(session.tape)["counters"]["tracker.array.materialised"] == 1

    def test_best_effort_completion_does_not_rebuild_the_union_graph(self):
        """A stalled 10 000-switch plan finishes in its rounds' time.

        This instance stalls at t = 0 on a dependency cycle and is finished
        best-effort in 11 greedy loop-free rounds over 244 switches.  With
        one dict union graph built per candidate that took 18.4 s; on the
        id-space oracle (one full check per round, one reachability walk
        per candidate) it takes about half a second, and the schedule is
        the one frozen at the parent commit.
        """
        instance = segmented_instance(10000, seed=77, segments=32)
        start = time.perf_counter()
        result = greedy_schedule(instance)
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256(schedule_to_json(result.schedule).encode()).hexdigest()
        assert (result.feasible, result.stalled_at) == (False, 0)
        assert digest == "294350fe8ee9a8efebcb6df673ef93cf35f307838389078602b52efc4bb6925e"
        assert elapsed < 3.6, f"best-effort completion took {elapsed:.2f}s (18.4 s / 5)"
