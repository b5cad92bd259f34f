"""Definitions 1-3 on the paper's instances, judged by the verifier's Verdict."""

import repro
from repro.core.schedule import UpdateSchedule
from repro.validate import verify_schedule


class TestPaperSchedule:
    def test_paper_timed_sequence_is_consistent(self, fig1_instance, paper_schedule):
        verdict = verify_schedule(fig1_instance, paper_schedule)
        assert verdict.ok
        assert verdict.congestion == []
        assert verdict.loops == []
        assert verdict.blackholes == []

    def test_all_at_once_has_three_loops(self, fig1_instance):
        schedule = UpdateSchedule({v: 0 for v in fig1_instance.switches_to_update})
        verdict = verify_schedule(fig1_instance, schedule)
        # The paper's Fig. 2(a) names three transient forwarding loops.
        assert len(verdict.loops) == 3
        assert {event.node for event in verdict.loops} == {"v2", "v3"}

    def test_fig2b_congests_link_v4_v3(self, fig1_instance):
        schedule = UpdateSchedule({"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 1})
        verdict = verify_schedule(fig1_instance, schedule)
        assert any(event.link == ("v4", "v3") for event in verdict.congestion)

    def test_early_v5_deflects_old_flow_back_through_v2(self, fig1_instance):
        # Updating v5 while old flow is in flight sends it back over
        # (v5, v2) towards (v2, v6) -- the Section II example.  Under
        # Definition 2 this is first and foremost a forwarding loop: the
        # deflected units already crossed v2 on their way out.
        schedule = UpdateSchedule({"v2": 0, "v5": 0, "v3": 1, "v1": 2, "v4": 2})
        verdict = verify_schedule(fig1_instance, schedule)
        assert not verdict.ok
        assert any(event.node == "v2" for event in verdict.loops)


class TestMechanics:
    def test_loads_complete_from_t0(self, fig1_instance, paper_schedule):
        verdict = verify_schedule(fig1_instance, paper_schedule)
        assert verdict.check_start == 0
        # Steady old-path load before the update is d=1 on every old link.
        assert verdict.loads[("v1", "v2")][0] == 1.0

    def test_peak_load_and_series(self, fig1_instance, paper_schedule):
        verdict = verify_schedule(fig1_instance, paper_schedule)
        assert max(verdict.loads[("v2", "v6")].values()) == 1.0
        assert ("x", "y") not in verdict.loads
        assert verdict.loads[("v1", "v2")]

    def test_blackhole_detected(self, tiny_instance):
        # Updating only a sends the flow a->c with delay 3; c already has a
        # rule (it is on the old path), so no unit is dropped.
        verdict = verify_schedule(tiny_instance, UpdateSchedule({"a": 0}))
        assert verdict.drop_free

    def test_partial_schedule_supported(self, fig1_instance):
        # Updating only v2 is the safe first step: no violation, though the
        # verdict is not ok because the schedule is incomplete.
        verdict = verify_schedule(fig1_instance, UpdateSchedule({"v2": 0}))
        assert verdict.loops == []
        assert verdict.blackholes == []
        assert verdict.congestion == []

    def test_is_complete(self, fig1_instance, paper_schedule):
        assert verify_schedule(fig1_instance, paper_schedule).schedule_complete
        partial = verify_schedule(fig1_instance, UpdateSchedule({"v2": 0}))
        assert not partial.schedule_complete

    def test_validate_alias(self, fig1_instance, paper_schedule):
        # The package's top-level judge is the verifier itself.
        assert repro.verify_schedule is verify_schedule
        assert repro.verify_schedule(fig1_instance, paper_schedule).ok


class TestShortcutInstance:
    def test_overtake_congestion_is_unavoidable(self, shortcut_instance):
        # Any source update time collides on (c, d): off_new < off_old.
        for when in (0, 3, 10):
            verdict = verify_schedule(shortcut_instance, UpdateSchedule({"a": when}))
            assert any(event.link == ("c", "d") for event in verdict.congestion)

    def test_slow_detour_is_clean(self, tiny_instance):
        verdict = verify_schedule(tiny_instance, UpdateSchedule({"a": 0}))
        assert verdict.ok
