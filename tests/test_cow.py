"""Copy-on-write index + tracker-snapshot correctness.

Two layers of assurance: unit tests pin :class:`repro.core.cow.CowIndex`'s
snapshot isolation down exactly, and a 200+-instance sweep cross-validates
the COW interval tracker against the quadratic unit tracer oracle
(:mod:`repro.core.trace`) -- the structural sharing must never change a
single verdict.
"""

import random

import pytest

from repro.core.cow import CowIndex
from repro.core.greedy import greedy_schedule
from repro.core.instance import random_instance, segmented_instance
from repro.core.intervals import IntervalTracker
from repro.core.trace import trace_schedule
from repro.core.tracker import replay_schedule
from repro.core.rounds import greedy_loop_free_rounds
from repro.updates.order_replacement import realize_round_times


class TestCowIndex:
    def test_add_and_get(self):
        index = CowIndex()
        index.add("a", 1)
        index.add("a", 2)
        index.add("b", 3)
        assert list(index.get("a")) == [1, 2]
        assert list(index["b"]) == [3]
        assert index.get("missing") == ()
        assert "a" in index and "missing" not in index
        assert sorted(index) == ["a", "b"]
        assert len(index) == 2

    def test_add_all_matches_repeated_add(self):
        batch = CowIndex()
        batch.add_all(["x", "y", "x"], 7)
        single = CowIndex()
        for key in ["x", "y", "x"]:
            single.add(key, 7)
        assert {k: list(batch[k]) for k in batch} == {
            k: list(single[k]) for k in single
        }

    def test_snapshot_sees_current_state(self):
        index = CowIndex()
        index.add("a", 1)
        snap = index.snapshot()
        assert list(snap["a"]) == [1]
        assert len(snap) == 1

    def test_append_after_snapshot_does_not_leak_into_snapshot(self):
        index = CowIndex()
        index.add("a", 1)
        snap = index.snapshot()
        index.add("a", 2)
        index.add("b", 3)
        assert list(index["a"]) == [1, 2]
        assert list(snap.get("a")) == [1]
        assert "b" not in snap

    def test_append_to_snapshot_does_not_leak_back(self):
        index = CowIndex()
        index.add("a", 1)
        snap = index.snapshot()
        snap.add("a", 99)
        assert list(index["a"]) == [1]
        assert list(snap["a"]) == [1, 99]

    def test_snapshot_of_snapshot_chain_is_isolated(self):
        root = CowIndex()
        root.add("k", 0)
        a = root.snapshot()
        b = a.snapshot()
        a.add("k", 1)
        b.add("k", 2)
        root.add("k", 3)
        assert list(root["k"]) == [0, 3]
        assert list(a["k"]) == [0, 1]
        assert list(b["k"]) == [0, 2]

    def test_owner_appends_in_place_between_snapshots(self):
        index = CowIndex()
        index.add("a", 1)
        values = index["a"]
        index.add("a", 2)  # still owned: must append in place, no copy
        assert index["a"] is values


class TestTrackerCloneIsolation:
    def _tracker(self, count=12, seed=3):
        instance = random_instance(count, seed=seed)
        return instance, IntervalTracker(instance)

    def test_child_rounds_leave_parent_untouched(self):
        instance, parent = self._tracker()
        pending = list(instance.switches_to_update)
        before = (
            dict(parent.applied),
            parent.congestion_spans(),
            parent.finite_drain_horizon(),
        )
        child = parent.clone()
        child.apply_round(pending[:2], 0)
        child.apply_round(pending[2:3], 1)
        after = (
            dict(parent.applied),
            parent.congestion_spans(),
            parent.finite_drain_horizon(),
        )
        assert before == after

    def test_sibling_clones_diverge_independently(self):
        instance, parent = self._tracker(count=10, seed=11)
        pending = list(instance.switches_to_update)
        left = parent.clone()
        right = parent.clone()
        left.apply_round(pending[:1], 0)
        right.apply_round(pending[-1:], 0)
        assert set(left.applied) == {pending[0]}
        assert set(right.applied) == {pending[-1]}
        assert parent.applied == {}

    def test_clone_previews_match_original(self):
        instance, tracker = self._tracker(count=9, seed=21)
        pending = list(instance.switches_to_update)
        clone = tracker.clone()
        for node in pending:
            assert (
                tracker.preview_round([node], 0).ok
                == clone.preview_round([node], 0).ok
            )


class TestTrackerMatchesUnitTracer:
    """COW tracker vs. the quadratic oracle on a broad instance sweep."""

    def _assert_verdicts_agree(self, instance, schedule):
        oracle = trace_schedule(instance, schedule)
        tracker = replay_schedule(instance, schedule)
        assert bool(oracle.loops) == bool(tracker.loops)
        assert bool(oracle.blackholes) == bool(tracker.blackholes)
        assert bool(oracle.congestion) == bool(tracker.congestion_spans())

    @pytest.mark.parametrize("base", range(10))
    def test_greedy_schedules_agree_on_random_instances(self, base):
        # 10 x 15 = 150 random two-path instances, greedy schedules.
        for offset in range(15):
            seed = base * 1013 + offset
            instance = random_instance(4 + (seed % 7), seed=seed)
            result = greedy_schedule(instance)
            self._assert_verdicts_agree(instance, result.schedule)

    @pytest.mark.parametrize("base", range(5))
    def test_or_realizations_agree_on_random_instances(self, base):
        # 5 x 12 = 60 more instances, round-based schedules with skew --
        # these exercise congested and loopy trajectories, not just the
        # clean greedy ones.
        for offset in range(12):
            seed = base * 727 + offset + 1
            instance = random_instance(4 + (seed % 6), seed=seed)
            rounds = greedy_loop_free_rounds(instance)
            schedule = realize_round_times(
                rounds, rng=random.Random(seed), max_skew=2
            )
            self._assert_verdicts_agree(instance, schedule)

    def test_segmented_instances_agree(self):
        # Locally-rerouted workload (the Fig. 10/11 shape), 20 instances.
        for seed in range(20):
            instance = segmented_instance(24, seed=seed, segments=2)
            result = greedy_schedule(instance)
            self._assert_verdicts_agree(instance, result.schedule)
