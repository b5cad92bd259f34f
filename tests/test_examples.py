"""The example scripts must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "emulation.py", "maintenance_reroute.py"],
)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()


def test_quickstart_reports_consistent_schedule():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "congestion-free: True" in completed.stdout
    assert "loop-free: True" in completed.stdout
    assert "feasible = True" in completed.stdout
