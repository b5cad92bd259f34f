"""What a fresh process loads: a heavy dependency only with its first user.

Each check runs in its own interpreter, since this one has long since
imported everything.  The rule (DESIGN.md, "What a process imports"):

* scipy (~0.4 s, ~40 MB) loads only when the MUTP ILP is solved
  (:func:`repro.solver.ilp.solve_ilp`, which calls ``scipy.optimize.milp``);
* numpy (~0.1 s) only with the ILP, its one importer in ``src/``: the
  array tracker (``make_tracker`` on a trajectory of
  ``ARRAY_TRACKER_MIN_HOPS`` or more) is plain Python;
* ``multiprocessing`` and the process pool only when
  :func:`~repro.runtime.parallel.ordered_map` forks a pool;
* ``sqlite3`` never: a trace is one JSONL file;
* a package surface (``repro``, ``repro.core``, ...) imports nothing until
  one of its names is read (:mod:`repro.lazy`).
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

#: The package surfaces that load their names on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.pipeline",
    "repro.trace",
    "repro.runtime",
    "repro.service",
    "repro.validate",
)

#: Printed by a probe: which of the heavy dependencies are loaded.  asyncio
#: imports ``concurrent.futures`` (for its Future type, not the process
#: pool), so that package is heavy only in a process without asyncio.
LOADED = """
import json, sys
heavy = ["numpy", "scipy", "multiprocessing", "concurrent.futures.process", "sqlite3"]
if "asyncio" not in sys.modules:
    heavy.append("concurrent.futures")
print(json.dumps(sorted(name for name in heavy if name in sys.modules)))
"""


def run_fresh(code: str) -> object:
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


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_module_loads_no_heavy_dependency(module):
    assert run_fresh(f"import {module}\n" + LOADED) == []


def test_experiments_package_loads_no_experiment_module():
    loaded = run_fresh(
        "import json, sys, repro.experiments\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('repro.experiments.'))))"
    )
    assert loaded == []


def test_import_repro_loads_no_subpackage():
    loaded = run_fresh(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('repro.'))))"
    )
    assert loaded == ["repro.lazy"]


def test_short_chronus_plan_loads_no_numpy():
    # The plan-dense shape: 16 switches, a global reroute, dict tracker.
    loaded = run_fresh(
        "from repro.core.instance import random_instance\n"
        "from repro.updates.registry import get_planner\n"
        "plan = get_planner('chronus').plan(random_instance(16, seed=3, capacity=2.0))\n"
        "assert plan.feasible\n" + LOADED
    )
    assert loaded == []


def test_judging_a_plan_loads_no_des():
    # The verifier's package surface is lazy: importing the judge and
    # verifying a plan-dense-shaped Chronus plan leaves the fluid data plane
    # and the controller stack (what differential_replay drives) unloaded.
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.validate.verifier\n"
        "from repro.core.instance import random_instance\n"
        "from repro.updates.registry import get_planner\n"
        "instance = random_instance(16, seed=3, capacity=2.0)\n"
        "planner = get_planner('chronus')\n"
        "assert planner.verify(instance, planner.plan(instance).schedule).ok\n"
        "print(json.dumps(sorted(n for n in sys.modules\n"
        "    if n.split('.')[:2] in (['repro', 'simulator'], ['repro', 'controller']))))"
    )
    assert loaded == []


def test_sweep_item_loads_no_numpy():
    # The sweep-paper shape: five schemes, node budgets, verified, stored.
    loaded = run_fresh(
        "import tempfile\n"
        "from repro.pipeline import ArtifactStore, RunContext, run_to_store\n"
        "overrides = dict(switch_counts=(8,), instances_per_size=1, base_seed=7,\n"
        "    schemes=('chronus', 'or', 'opt', 'tp', 'aug'), opt_node_budget=60,\n"
        "    or_node_budget=60, aug_epsilon=1.0, verify=True)\n"
        "stored = run_to_store('sweep', overrides, RunContext(workers=1),\n"
        "    ArtifactStore(tempfile.mkdtemp()))\n"
        "[record] = stored.records\n"
        "assert len(record['outcomes']) == 5\n"
        "assert all(o['verifier_agrees'] is True for o in record['outcomes'].values())\n"
        + LOADED
    )
    assert loaded == []


def test_service_cell_loads_no_numpy():
    loaded = run_fresh(
        "from repro.service.service import ServiceConfig, run_cell\n"
        "report = run_cell(ServiceConfig(seed=1, requests=12))\n"
        "assert len(report.requests) == 12\n" + LOADED
    )
    assert loaded == []


def test_long_path_plan_loads_no_numpy_and_keeps_its_schedule():
    # 400 trajectory hops: make_tracker builds the array tracker, whose
    # instance encoding is plain Python.  The digest is the schedule the plan
    # returned while that encoding was built with numpy.
    outcome = run_fresh(
        "import hashlib, json, sys\n"
        "from repro.core.instance import segmented_instance\n"
        "from repro.updates.registry import get_planner\n"
        "plan = get_planner('chronus').plan(segmented_instance(200, seed=7))\n"
        "times = sorted((str(node), at) for node, at in plan.schedule.times.items())\n"
        "print(json.dumps(dict(numpy='numpy' in sys.modules,\n"
        "    makespan=plan.schedule.makespan,\n"
        "    digest=hashlib.sha256(json.dumps(times).encode()).hexdigest()[:16])))"
    )
    assert outcome == {"numpy": False, "makespan": 12, "digest": "371eb6daeb10df99"}


def test_serial_run_loads_no_multiprocessing():
    loaded = run_fresh(
        "from repro.pipeline import RunContext, run_in_memory\n"
        "result = run_in_memory('sweep', dict(switch_counts=(8,), instances_per_size=2,\n"
        "    opt_node_budget=60, or_node_budget=60), ctx=RunContext(workers=1))\n"
        "assert len(result.records) == 2\n" + LOADED
    )
    assert loaded == []


def test_ilp_loads_scipy_on_use_and_proves_fig1():
    outcome = run_fresh(
        "import json, sys\n"
        "from repro import motivating_example, solve_mutp\n"
        "before = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "schedule, result = solve_mutp(motivating_example(), horizon=4)\n"
        "print(json.dumps(dict(before=before,\n"
        "    after=sorted({'numpy', 'scipy'} & set(sys.modules)),\n"
        "    status=result.status, makespan=schedule.makespan)))"
    )
    assert outcome == {
        "before": [], "after": ["numpy", "scipy"], "status": "optimal", "makespan": 4
    }


def test_lazy_surfaces_are_complete():
    # dir() lists every name before it loads, every name resolves to its
    # defining module's object, and `from repro import *` binds them all.
    problems = run_fresh(
        "import importlib, json\n"
        f"packages = {LAZY_PACKAGES!r}\n"
        "problems = []\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    missing = set(package.__all__) - set(dir(package))\n"
        "    problems += [f'{name}.{attr} not in dir()' for attr in sorted(missing)]\n"
        "    for attr in package.__all__:\n"
        "        try:\n"
        "            getattr(package, attr)\n"
        "        except AttributeError as error:\n"
        "            problems.append(f'{name}.{attr}: {error}')\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "import repro\n"
        "problems += [f'* missed {attr}' for attr in repro.__all__ if attr not in namespace]\n"
        "print(json.dumps(problems))"
    )
    assert problems == []


def test_lazy_names_are_the_defining_modules_objects():
    outcome = run_fresh(
        "import json\n"
        "import repro, repro.core, repro.trace.recorder\n"
        "from repro import Verdict, greedy_schedule, motivating_example, verify_schedule\n"
        "from repro.core.greedy import greedy_schedule as defined\n"
        "from repro.trace import TraceRecorder, recorder\n"
        "instance = motivating_example()\n"
        "result = greedy_schedule(instance)\n"
        "print(json.dumps(dict(\n"
        "    same=greedy_schedule is defined is repro.core.greedy_schedule,\n"
        "    recorder=isinstance(recorder, TraceRecorder),\n"
        "    ok=verify_schedule(instance, result.schedule).ok,\n"
        "    verdict=type(verify_schedule(instance, result.schedule)) is Verdict,\n"
        "    unknown=hasattr(repro, 'no_such_name'))))"
    )
    assert outcome == {
        "same": True, "recorder": True, "ok": True, "verdict": True, "unknown": False
    }
