"""Tests for the ``gate`` scenario (``make validate``) and the CLI's exit rule."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.schedule import UpdateSchedule
from repro.experiments.__main__ import main
from repro.experiments.gate import SCHEMES, Disagreement, GateReport, check_plan
from repro.pipeline import get_scenario, run_in_memory
from repro.updates import available_schemes, get_planner
from repro.updates.registry import Planner
from repro.validate import verify_schedule
from tests.test_schedule import swapped

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRunGate:
    def test_small_sweep_agrees(self):
        report = run_in_memory("gate", {"instances_per_size": 4})
        assert report.ok
        assert report.schemes == available_schemes()
        assert report.checked == 5 * 4  # every registered scheme per instance
        assert "all engines agree" in report.render()

    def test_protocol_subset(self):
        report = run_in_memory(
            "gate", {"instances_per_size": 3, "schemes": ("chronus", "tp")}
        )
        assert report.ok
        assert report.checked == 6

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_in_memory(
                "gate", {"instances_per_size": 1, "schemes": ("chronus", "bogus")}
            )

    def test_acceptance_sweep(self):
        """The acceptance bar: 50 seeded instances x every registered scheme."""
        report = run_in_memory("gate")
        assert report.ok, report.render()
        assert report.checked == 5 * 50

    def test_defaults_gate_every_registered_scheme(self):
        defaults = get_scenario("gate").defaults
        assert set(defaults) == {
            "switch_counts",
            "instances_per_size",
            "base_seed",
            "schemes",
        }
        assert SCHEMES == available_schemes()

class TestCheckPlanDetectsCorruption:
    def test_corrupted_schedule_reported(self, fig1_instance):
        plan = get_planner("chronus").plan(fig1_instance)
        rounds = plan.schedule.rounds()
        # Swap the first and last updates but keep the feasibility claim:
        # exactly the silent corruption the gate exists to catch.
        plan = replace(
            plan, schedule=swapped(plan.schedule, rounds[0][1][0], rounds[-1][1][0])
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

    def test_document_that_drops_a_round_is_caught_for_every_scheme(self, monkeypatch):
        import repro.core.serialization as serialization

        written = serialization.plan_to_json

        def drop_a_round(plan, indent=2):
            document = json.loads(written(plan, indent))
            document["rounds"].pop()
            return json.dumps(document, indent=indent, sort_keys=True)

        monkeypatch.setattr(serialization, "plan_to_json", drop_a_round)
        report = run_in_memory("gate", {"instances_per_size": 1})
        assert [d.protocol for d in report.disagreements] == list(SCHEMES)
        for d in report.disagreements:
            assert d.kind == "plan-document"
            assert d.detail.endswith("does not give the plan back: rounds, bytes")

    def test_report_renders_disagreements(self):
        report = GateReport(
            instances=1,
            switch_counts=(6,),
            schemes=("chronus",),
            checked=1,
            disagreements=[
                Disagreement(
                    seed=3,
                    switch_count=6,
                    protocol="chronus",
                    kind="verifier-simulator",
                    detail="measured 2 Mbps, predicted 1 Mbps",
                )
            ],
        )
        text = report.render()
        assert "DISAGREEMENT" in text
        assert "seed=3" in text
        assert "measured 2 Mbps" in text
        assert not report.ok


class TestValidateScript:
    def test_cli_passes_on_quick_sweep(self, tmp_path):
        # `make test`'s configuration of the gate.
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "run",
                "gate",
                "--quiet",
                "--runs-dir",
                str(tmp_path),
                "--set",
                "instances_per_size=8",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all engines agree" in proc.stdout


@pytest.fixture
def forced_disagreement(monkeypatch):
    """Every planner's measurement now disagrees with the verifier."""
    monkeypatch.setattr(Planner, "conformance", lambda self, m, v: ["forced: 1 != 0"])


def run_then_report(capsys, tmp_path, name, *overrides):
    """Exit codes and outputs of ``run`` and then ``report`` of one run."""
    store = ["--runs-dir", str(tmp_path)]
    sets = [arg for key in overrides for arg in ("--set", key)]
    ran = main(["run", name, "--quiet", "--no-report", "--run-id", "x", *store, *sets])
    ran_out = capsys.readouterr().out
    reported = main(["report", name, "--run-id", "x", *store])
    return (ran, ran_out), (reported, capsys.readouterr().out)


class TestExitRule:
    """A result whose ``ok`` is false prints its render and exits 1."""

    def test_gate_disagreement_fails_run_and_report(
        self, forced_disagreement, capsys, tmp_path
    ):
        for code, out in run_then_report(
            capsys, tmp_path, "gate", "instances_per_size=1", "schemes=chronus"
        ):
            assert code == 1
            assert "1 DISAGREEMENT(S)" in out
            assert "[planner-verifier] protocol=chronus" in out
            assert "forced: 1 != 0" in out

    def test_faults_oracle_disagreement_fails_run_and_report(
        self, monkeypatch, capsys, tmp_path
    ):
        # A clean verdict over a plane that dropped traffic: the oracle
        # cross-check the faults result gates on.
        from repro.simulator.dataplane import DataPlane

        monkeypatch.setattr(DataPlane, "total_dropped_volume", lambda self: 1.0)
        for code, out in run_then_report(
            capsys,
            tmp_path,
            "faults",
            "instances_per_point=1",
            "severities=[0.0]",
            "schemes=chronus",
        ):
            assert code == 1
            assert "oracle cross-check: 1 DISAGREEMENT(S)" in out
            assert "chronus severity=0 seed=" in out

    def test_verified_sweep_disagreement_fails_run(
        self, forced_disagreement, capsys, tmp_path
    ):
        (code, out), _ = run_then_report(
            capsys,
            tmp_path,
            "fig7",
            "verify=true",
            "switch_counts=[10]",
            "instances_per_size=1",
            "opt_node_budget=50",
            "or_node_budget=50",
        )
        assert code == 1
        assert "verifier DISAGREES on: n10-i0/chronus, n10-i0/opt, n10-i0/or" in out

    def test_agreeing_verified_sweep_passes(self, capsys, tmp_path):
        (code, out), (reported, _) = run_then_report(
            capsys, tmp_path, "fig8", "verify=true", "switch_counts=[10]",
            "instances_per_size=1", "or_node_budget=50",
        )
        assert code == reported == 0
        assert out == ""
