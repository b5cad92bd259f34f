"""The dict-layout interval tracker against the independent verifier.

A 200+-instance sweep replays greedy and round-based schedules through the
tracker (:func:`repro.core.tracker.replay_schedule`) and holds its loop,
black-hole and congestion verdicts to :func:`repro.validate.verify_schedule`.
The module name is historical: the copy-on-write index it also tested is
gone.
"""

import random

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.instance import random_instance, segmented_instance
from repro.core.tracker import replay_schedule
from repro.core.rounds import greedy_loop_free_rounds
from repro.updates.order_replacement import realize_round_times
from repro.validate import verify_schedule


class TestTrackerMatchesUnitTracer:
    """The tracker vs. the verifier on a broad instance sweep."""

    def _assert_verdicts_agree(self, instance, schedule):
        oracle = verify_schedule(instance, schedule)
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
