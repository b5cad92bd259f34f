"""What a fresh process loads: scipy only when the MUTP ILP is solved.

Each check runs in its own interpreter, since this one has long since
imported everything.  scipy costs a process ~0.4 s and ~40 MB; only
:func:`repro.solver.branch_and_bound.solve_ilp` needs it, and it imports
it on first use (DESIGN.md, "What a process imports").
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The modules programs start from: the package, the planner seam, the
#: sweep, the artifact store and the update service.
ENTRY_MODULES = (
    "repro",
    "repro.updates.registry",
    "repro.experiments.sweep",
    "repro.pipeline.store",
    "repro.service.service",
)


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_module_loads_no_scipy(module):
    loaded = run_fresh(
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')))"
    )
    assert loaded == [], f"import {module} loaded {loaded[:5]}"


def test_experiments_package_loads_no_experiment_module():
    loaded = run_fresh(
        "import json, sys, repro.experiments\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('repro.experiments.'))))"
    )
    assert loaded == []


def test_ilp_loads_scipy_on_use_and_proves_fig1():
    outcome = run_fresh(
        "import json, sys\n"
        "from repro import motivating_example, solve_mutp\n"
        "before = 'scipy' in sys.modules\n"
        "schedule, result = solve_mutp(motivating_example(), horizon=4)\n"
        "print(json.dumps(dict(before=before, after='scipy' in sys.modules,\n"
        "    status=result.status, makespan=schedule.makespan)))"
    )
    assert outcome == {"before": False, "after": True, "status": "optimal", "makespan": 4}
