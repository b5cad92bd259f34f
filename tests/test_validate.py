"""Tests for the independent plan-conformance verifier (:mod:`repro.validate`).

Three layers:

* unit tests of :func:`verify_schedule` / :func:`verify_two_phase` against
  hand-checkable instances (Fig. 1, a loop trap, a new-path-only branch);
* property tests: on ~100 seeded instances the verifier must reproduce the
  interval tracker's consistency numbers exactly -- on clean Chronus
  schedules *and* on dirty realised-OR schedules;
* mutation tests: corrupting a correct schedule (swapping two update
  times, dropping a switch) must flip the verdict.
"""

import pytest

from repro.analysis.metrics import evaluate_schedule
from repro.core.greedy import greedy_schedule
from repro.core.instance import instance_from_paths
from repro.core.schedule import UpdateSchedule
from repro.experiments.sweep import mixed_instance
from repro.network.graph import Network
from repro.core.rounds import greedy_loop_free_rounds
from repro.updates import get_planner, realize_round_times, two_phase_congestion_spans
from repro.validate import check_plan, verify_plan, verify_schedule, verify_two_phase


def loop_trap_instance():
    """Old path a-b-c-d, new path a-c-b-d: updating c first loops b<->c."""
    net = Network()
    for src, dst in [
        ("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("c", "b"), ("b", "d"),
    ]:
        net.add_link(src, dst, capacity=1.0, delay=1)
    return instance_from_paths(net, ["a", "b", "c", "d"], ["a", "c", "b", "d"])


def branch_instance():
    """Old path a-b-d, new path a-c-d: c holds no rule before the update."""
    net = Network()
    for src, dst in [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]:
        net.add_link(src, dst, capacity=1.0, delay=1)
    return instance_from_paths(net, ["a", "b", "d"], ["a", "c", "d"])


def assert_tracker_agreement(instance, schedule):
    """The verifier must reproduce the tracker's consistency numbers.

    Loop/black-hole *event counts* are representation dependent (the
    tracker records one event per surviving emission interval, the
    verifier one per emission), so only their emptiness is compared; the
    congested time-extended link count -- Fig. 8's unit -- must match
    exactly.
    """
    verdict = verify_schedule(instance, schedule)
    metrics = evaluate_schedule(instance, schedule)
    assert verdict.congestion_free == metrics.congestion_free
    assert verdict.congested_timed_links == metrics.congested_timed_links
    assert verdict.loop_free == metrics.loop_free
    assert verdict.drop_free == (metrics.blackhole_events == 0)


class TestVerifySchedule:
    def test_paper_schedule_is_consistent(self, fig1_instance, paper_schedule):
        verdict = verify_schedule(fig1_instance, paper_schedule)
        assert verdict.ok
        assert verdict.schedule_complete
        assert verdict.describe().startswith("verdict: consistent")

    def test_simultaneous_update_loops_on_fig1(self, fig1_instance, paper_schedule):
        """Flipping every switch at once is exactly what Fig. 1 warns against."""
        all_at_once = UpdateSchedule(
            {node: 0 for node in paper_schedule.times}, start_time=0
        )
        verdict = verify_schedule(fig1_instance, all_at_once)
        assert not verdict.ok
        assert not verdict.loop_free

    def test_wrong_order_creates_loop(self):
        instance = loop_trap_instance()
        # c flips to ->b at t=0 while b still forwards ->c until t=10.
        schedule = UpdateSchedule({"c": 0, "a": 10, "b": 10}, start_time=0)
        verdict = verify_schedule(instance, schedule)
        assert not verdict.loop_free
        assert "b" in verdict.loop_nodes
        assert "looped emission" in verdict.describe()

    def test_missing_switch_blackholes(self):
        instance = branch_instance()
        schedule = greedy_schedule(instance).schedule
        verdict = verify_schedule(instance, schedule.without("c"))
        assert not verdict.schedule_complete
        assert not verdict.drop_free
        assert verdict.blackhole_nodes == ("c",)

    def test_background_load_congests(self, tiny_instance):
        schedule = greedy_schedule(tiny_instance).schedule
        clean = verify_schedule(tiny_instance, schedule)
        assert clean.ok
        loaded = verify_schedule(
            tiny_instance, schedule, background={("a", "c"): [(None, None, 0.5)]}
        )
        assert not loaded.congestion_free
        assert [v.link for v in loaded.congestion] == [("a", "c")]

    def test_loads_cover_check_window(self, fig1_instance, paper_schedule):
        """The per-step load series must be complete over the check window."""
        verdict = verify_schedule(fig1_instance, paper_schedule)
        assert verdict.check_start == paper_schedule.t0
        assert verdict.check_end > paper_schedule.last_time
        assert verdict.loads  # every traversed link accumulated a series

    def test_infeasible_instance_never_verifies(self, shortcut_instance):
        """No complete schedule of the provably infeasible instance is clean."""
        result = greedy_schedule(shortcut_instance)
        assert not result.feasible
        verdict = verify_schedule(shortcut_instance, result.schedule)
        assert not verdict.ok


class TestVerifyTwoPhase:
    def test_matches_span_formula_on_overtaking(self, shortcut_instance):
        flip_time = 5
        spans = two_phase_congestion_spans(shortcut_instance, flip_time)
        verdict = verify_two_phase(shortcut_instance, flip_time)
        assert spans  # the shortcut overtakes in-flight old traffic
        assert not verdict.congestion_free
        assert verdict.congested_timed_links == sum(
            span.timed_link_count for span in spans
        )
        assert [v.link for v in verdict.congestion] == [span.link for span in spans]

    def test_clean_two_phase(self, tiny_instance):
        verdict = verify_two_phase(tiny_instance, 5)
        assert verdict.ok

    def test_per_packet_consistency_never_loops(self, fig1_instance):
        verdict = verify_two_phase(fig1_instance, 3)
        assert verdict.loop_free and verdict.drop_free


class TestVerifyPlan:
    def test_chronus_plan_carries_conformant_verdict(self, fig1_instance):
        plan = get_planner("chronus").plan(fig1_instance)
        assert plan.instance is fig1_instance
        assert plan.claims_consistency
        assert verify_plan(plan.instance, plan).ok

    def test_two_phase_judged_under_versioned_semantics(self, shortcut_instance):
        plan = get_planner("tp").plan(shortcut_instance)
        assert not plan.feasible  # the span formula predicts overtaking
        verdict = verify_plan(shortcut_instance, plan)
        assert not verdict.congestion_free
        # In-place verification of the same nominal schedule would also see
        # loops/drops -- versioned semantics must not.
        assert verdict.loop_free and verdict.drop_free

    def test_best_effort_plan_is_vacuously_conformant(self, shortcut_instance):
        plan = get_planner("or").plan(shortcut_instance)
        # OR makes no consistency claim to break: its nominal rounds congest
        # here, yet the gate holds it to the engine cross-checks only.
        assert not plan.claims_consistency
        assert not verify_plan(shortcut_instance, plan).ok
        assert not check_plan(
            shortcut_instance, plan, seed=0, switch_count=4, replay=False
        )


class TestTrackerAgreementProperty:
    """The verifier and the interval tracker agree on ~100 seeded instances."""

    SEEDS = range(50)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_agrees_on_chronus_schedules(self, seed):
        instance = mixed_instance(8, seed)
        schedule = greedy_schedule(instance).schedule
        assert_tracker_agreement(instance, schedule)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_agrees_on_realized_or_schedules(self, seed):
        """Dirty schedules too: realised OR rounds congest and may loop."""
        instance = mixed_instance(8, seed)
        realized = realize_round_times(
            greedy_loop_free_rounds(instance), seed=seed, max_skew=3
        )
        assert_tracker_agreement(instance, realized)


class TestMutationDetection:
    """Corrupting a correct schedule must flip the verdict."""

    def test_paper_schedule_swaps_detected(self, fig1_instance, paper_schedule):
        # Every cross-round swap involving v2 or v5 breaks Fig. 1's ordering.
        for a, b in [("v2", "v3"), ("v2", "v5"), ("v4", "v5"), ("v3", "v5")]:
            mutated = paper_schedule.swapped(a, b)
            assert not verify_schedule(fig1_instance, mutated).ok, (a, b)

    def test_paper_schedule_drops_detected(self, fig1_instance, paper_schedule):
        for node in paper_schedule.times:
            mutated = paper_schedule.without(node)
            assert not verify_schedule(fig1_instance, mutated).ok, node

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_mutations_detected(self, seed):
        """First<->last round swaps and drops are caught on every seed."""
        instance = mixed_instance(8, seed)
        result = greedy_schedule(instance)
        schedule = result.schedule
        if not result.feasible or len(set(schedule.times.values())) < 2:
            pytest.skip("no tight multi-round schedule to mutate")
        rounds = schedule.rounds()
        swapped = schedule.swapped(rounds[0][1][0], rounds[-1][1][0])
        assert not verify_schedule(instance, swapped).ok
        dropped = schedule.without(next(iter(schedule.times)))
        assert not verify_schedule(instance, dropped).ok
