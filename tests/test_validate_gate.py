"""Tests for the ``make validate`` plan-conformance gate."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.updates import available_schemes, get_planner
from repro.validate import check_plan, run_gate
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

    @pytest.mark.slow
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
