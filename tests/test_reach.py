"""Every ``src/repro`` module earns a system path, or is named here.

One fresh interpreter runs the tiny grid of every registered scenario
through the experiments CLI (every scheme, ``verify=true``, Fig. 6 under
faults, a JSONL trace into a temporary runs root) and then the trace CLI
on that trace.  Alg. 1 loads on the ``walkthrough`` path and the plan
document format on the ``gate`` path; program (3) and the bench tools
load on none.  The modules it never loads must be exactly
:data:`ALLOW_LIST`: a new module on no path fails the test, and so does an
allow-listed module that gains one (drop its entry then).  Files are
listed with :mod:`pathlib`, never by importing them -- an import would
load the very modules being counted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ALL_SCHEMES = "schemes=aug,chronus,opt,or,tp"
SWEEP = (
    ALL_SCHEMES,
    "switch_counts=[8]",
    "instances_per_size=1",
    "verify=true",
    "opt_node_budget=50",
    "or_node_budget=50",
)

#: ``--set`` overrides of each scenario's tiny grid (every scenario must
#: have an entry, checked below).
TINY = {
    "table2": (),
    "walkthrough": (),
    "fig6": (ALL_SCHEMES, "fault_severity=1.0", "duration=12.0"),
    "fig7": SWEEP,
    "fig8": SWEEP,
    "sweep": SWEEP,
    "fig9": ("switch_counts=[10]", "instances_per_size=1"),
    "fig10": (ALL_SCHEMES, "switch_counts=[20]"),
    "fig11": ("switch_count=10", "instances=1", "opt_node_budget=50"),
    "faults": (ALL_SCHEMES, "instances_per_point=1", "severities=[1.0]"),
    "service": ("cells=1", "pods=2", "pod_size=5", "requests=4"),
    "gate": ("instances_per_size=1",),
}

#: Modules no scenario, CLI or trace query loads: module -> (why it stays,
#: the ROADMAP item that owns it).
ALLOW_LIST = {
    "repro.core.mutp": (
        "program (3), the ILP OPT is held to in tests",
        "Program (3) at figure scale",
    ),
    "repro.solver": (
        "program (3)'s solver package",
        "Program (3) at figure scale",
    ),
    "repro.solver.ilp": (
        "program (3) solved by HiGHS",
        "Program (3) at figure scale",
    ),
    "repro.perf": (
        "tool: peak RSS, gc pauses and the cold path of scripts/profile.py and scripts/bench.py",
        "Profiles that measure the work, not the timers",
    ),
}


def module_names():
    """Every module under ``src/repro``, named from its path."""
    names = set()
    for path in SRC.glob("repro/**/*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def reach(runs_dir):
    """Run every scenario's tiny grid and the trace CLI; print the
    scenario names and the ``repro`` modules now loaded, as JSON."""
    import contextlib
    import io

    from repro.experiments.__main__ import main
    from repro.pipeline.scenario import scenario_names
    from repro.trace.__main__ import main as trace_main

    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, overrides in TINY.items():
            args = ["run", name, "--quiet", "--runs-dir", runs_dir, "--trace", "jsonl"]
            for override in overrides:
                args += ["--set", override]
            codes[name] = main(args)
        for command in ("show", "profile"):
            codes[f"trace {command}"] = trace_main([command, "--runs-dir", runs_dir])
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "repro")
    print(json.dumps({"codes": codes, "scenarios": scenario_names(), "loaded": loaded}))


def test_every_unloaded_module_is_allow_listed(tmp_path):
    completed = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(outcome["scenarios"]) == set(TINY)
    assert set(outcome["codes"].values()) == {0}, outcome["codes"]
    unloaded = module_names() - set(outcome["loaded"])
    assert unloaded == set(ALLOW_LIST), (
        f"on no path, not allow-listed: {sorted(unloaded - set(ALLOW_LIST))}; "
        f"allow-listed, now reached: {sorted(set(ALLOW_LIST) - unloaded)}"
    )


if __name__ == "__main__":
    reach(sys.argv[1])
