"""Unit tests for the illustrative renderings (Figs. 1/2/5 walkthrough)."""

from repro.analysis.illustrate import render_dependency_evolution, render_flow_timeline
from repro.experiments.walkthrough import run_walkthrough


class TestFlowTimeline:
    def test_marks_rules_and_updates(self, fig1_instance, paper_schedule):
        text = render_flow_timeline(fig1_instance, paper_schedule)
        assert "update: v2" in text
        assert "v2=>v6" in text  # new-rule marker after v2's update
        assert "v1->v2" in text  # old-rule marker before v1's update
        assert "verdict: consistent" in text

    def test_flags_congestion(self, fig1_instance):
        from repro.core.schedule import UpdateSchedule

        bad = UpdateSchedule({"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 1})
        text = render_flow_timeline(fig1_instance, bad)
        assert "!" in text
        assert "congestion event" in text

    def test_window_arguments(self, fig1_instance, paper_schedule):
        text = render_flow_timeline(fig1_instance, paper_schedule, t_start=0, t_end=3)
        assert "t -1" not in text
        assert "t  3" in text


class TestDependencyEvolution:
    def test_fig5_chains_present(self, fig1_instance):
        text = render_dependency_evolution(fig1_instance)
        assert "(v2 -> v4)" in text
        assert "(v3 -> v1 -> v5)" in text
        assert "updated: v2" in text


class TestWalkthrough:
    def test_full_narrative(self):
        text = run_walkthrough()
        assert "3 forwarding loops" in text
        assert "v4->v3 carries 2 > 1" in text
        assert "verdict: consistent" in text
        assert "Fig. 5" in text

    def test_alg1_verdict_beside_the_paper_sequence(self):
        lines = run_walkthrough().splitlines()
        start = lines.index("Alg. 1 -- the tree algorithm on identical delays (Theorem 2):")
        assert lines[start + 1 : start + 4] == [
            "  feasible: True (walk completed)",
            "  witness: v2@0, v1@1, v3@2, v4@3, v5@4"
            " (makespan 5; the paper's sequence above: makespan 4)",
            "  verify_schedule: ok",
        ]
