"""The ``python -m repro.experiments`` entry point (subprocess level)."""

import subprocess
import sys

import pytest


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_scenario(name, runs_dir):
    return run_cli("run", name, "--runs-dir", str(runs_dir), "--quiet")


def assert_usage_error(completed):
    """Exit 2 with argparse's usage line naming every subcommand."""
    assert completed.returncode == 2, completed.stdout
    assert "Traceback" not in completed.stderr
    assert completed.stderr.startswith("usage:")
    assert "{list,run,resume,report}" in completed.stderr
    assert completed.stdout == ""


def test_walkthrough_via_cli(tmp_path):
    completed = run_scenario("walkthrough", tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert "Fig. 5" in completed.stdout
    assert "verdict: consistent" in completed.stdout


def test_exact_name_selects_single_experiment(tmp_path):
    completed = run_scenario("table2", tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert "Table II" in completed.stdout
    assert "Fig. 7" not in completed.stdout


def test_inexact_name_is_an_error_listing_scenarios(tmp_path):
    # "fig1" used to substring-match Figs. 10 and 11 and silently run
    # both; it must now fail fast and name every valid scenario.
    completed = run_scenario("fig1", tmp_path)
    assert completed.returncode == 2, completed.stdout
    assert "unknown scenario 'fig1'" in completed.stderr
    assert "fig10" in completed.stderr
    assert "fig11" in completed.stderr
    assert "Fig. 10" not in completed.stdout


def test_bare_scenario_name_is_a_usage_error():
    assert_usage_error(run_cli("fig7"))


def test_no_arguments_is_a_usage_error():
    assert_usage_error(run_cli())


@pytest.mark.parametrize("name", ["sweep", "fig7", "fig8"])
def test_unknown_workload_exits_2_before_the_run_exists(name, tmp_path):
    completed = run_cli(
        "run", name, "--runs-dir", str(tmp_path), "--quiet", "--set", "workload=foo"
    )
    # One instance family is left (the mixed reroutes); ``workload`` is no
    # parameter any more, and naming it is refused like any unknown one.
    assert completed.returncode == 2, completed.stdout
    assert "Traceback" not in completed.stderr
    assert "unknown parameter(s) ['workload']" in completed.stderr
    assert not any(tmp_path.iterdir())  # no run directory, so nothing to resume
