"""Tests for the ``make validate`` plan-conformance gate."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.schedule import UpdateSchedule
from repro.updates import available_schemes, get_planner
from repro.validate import check_plan, run_gate, verify_schedule
from repro.validate.gate import Disagreement, GateReport

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRunGate:
    def test_small_sweep_agrees(self):
        report = run_gate(instance_count=4, switch_count=8, replay=True)
        assert report.ok
        assert report.protocols == available_schemes()
        assert report.checked == 5 * 4  # every registered scheme per instance
        assert "all engines agree" in report.describe()

    def test_protocol_subset(self):
        report = run_gate(
            instance_count=3, switch_count=8, protocols=("chronus", "tp"), replay=False
        )
        assert report.ok
        assert report.checked == 6

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_gate(instance_count=1, protocols=("chronus", "bogus"))

    def test_acceptance_sweep(self):
        """The acceptance bar: 50 seeded instances x every registered scheme."""
        report = run_gate(instance_count=50, switch_count=8, replay=True)
        assert report.ok, report.describe()
        assert report.checked == 5 * 50


class TestCheckPlanDetectsCorruption:
    def test_corrupted_schedule_reported(self, fig1_instance):
        plan = get_planner("chronus").plan(fig1_instance)
        rounds = plan.schedule.rounds()
        # Swap the first and last updates but keep the feasibility claim:
        # exactly the silent corruption the gate exists to catch.
        plan = replace(
            plan, schedule=plan.schedule.swapped(rounds[0][1][0], rounds[-1][1][0])
        )
        disagreements = check_plan(
            fig1_instance, plan, seed=0, switch_count=6, replay=False
        )
        assert disagreements
        assert any(d.kind == "planner-verifier" for d in disagreements)
        rendered = disagreements[0].render()
        assert "planner-verifier" in rendered and "chronus" in rendered

    def test_two_phase_span_formula_is_held_to_the_verifier(
        self, shortcut_instance, monkeypatch
    ):
        # TP overtakes on (c, d) here; a span formula that lost its spans
        # must not pass as agreement with the verifier's walk.
        import repro.updates.two_phase as two_phase

        plan = get_planner("tp").plan(shortcut_instance)
        assert not plan.feasible
        assert not check_plan(
            shortcut_instance, plan, seed=0, switch_count=4, replay=False
        )
        monkeypatch.setattr(two_phase, "two_phase_congestion_spans", lambda *a: [])
        disagreements = check_plan(
            shortcut_instance, plan, seed=0, switch_count=4, replay=False
        )
        assert [d.kind for d in disagreements] == ["planner-verifier"]

    def test_undercounting_tracker_is_caught_on_chronus(
        self, shortcut_instance, monkeypatch
    ):
        from repro.core.intervals import CongestionSpan

        plan = get_planner("chronus").plan(shortcut_instance)
        assert not plan.feasible  # best effort: the plan congests
        assert not check_plan(
            shortcut_instance, plan, seed=0, switch_count=4, replay=False
        )
        counted = CongestionSpan.timed_link_count.fget
        monkeypatch.setattr(
            CongestionSpan, "timed_link_count", property(lambda s: counted(s) - 1)
        )
        disagreements = check_plan(
            shortcut_instance, plan, seed=0, switch_count=4, replay=False
        )
        assert [d.kind for d in disagreements] == ["planner-verifier"]

    def test_or_plan_is_judged_on_its_dispatched_rounds(self, fig1_instance):
        plan = get_planner("or").plan(fig1_instance)
        # A realisation that updates every switch at once loops and drops;
        # the gate judges what the controller is handed, the nominal rounds.
        at_once = UpdateSchedule(
            dict.fromkeys(plan.schedule.times, 0), start_time=0
        )
        assert verify_schedule(fig1_instance, at_once).loops
        tampered = replace(plan, schedule=at_once)
        assert tampered.dispatched == plan.dispatched
        assert not check_plan(
            fig1_instance, tampered, seed=0, switch_count=6, replay=False
        )

    def test_report_renders_disagreements(self):
        report = GateReport(instances=1, switch_count=6, protocols=("chronus",))
        report.checked = 1
        report.disagreements.append(
            Disagreement(
                seed=3,
                switch_count=6,
                protocol="chronus",
                kind="verifier-simulator",
                detail="measured 2 Mbps, predicted 1 Mbps",
            )
        )
        text = report.describe()
        assert "DISAGREEMENT" in text
        assert "seed=3" in text
        assert "measured 2 Mbps" in text
        assert not report.ok


class TestValidateScript:
    def test_cli_passes_on_quick_sweep(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "validate.py"),
                "--quick",
                "--quiet",
                "--no-replay",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all engines agree" in proc.stdout
