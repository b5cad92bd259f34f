"""Every ``src/repro`` module earns a system path, and every name in it a
caller outside the tests, or is named here.

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

One level down the check is static: every function, class and method
defined in a module off :data:`ALLOW_LIST` (dunders exempt) must be
referenced -- as an ``ast.Name`` or an ``ast.Attribute`` -- somewhere in
``src/``, ``scripts/``, ``bench/``, ``benchmarks/`` or ``examples/`` other
than by its own definition.  The unreferenced names must be exactly
:data:`NAME_ALLOW_LIST`.  It reads references rather than calls because
most ``src`` lines that the tiny grids leave uncalled are paths only larger
inputs reach (OPT's rescue branches, long chains, ``report`` / ``resume``).
A string naming a definition (a lazy export, ``__all__``) is not a
reference.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The trees whose code counts as a caller.
CALLER_TREES = ("src", "scripts", "bench", "benchmarks", "examples")

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


#: Definitions nothing outside the tests references: qualified name ->
#: (why it stays, the ROADMAP item that owns it).
NAME_ALLOW_LIST = {
    "repro.core.dependency.last_old_departure": (
        "Alg. 3's pointwise oracle; the incremental dependency scan is held to it",
        "Tier-1 under two minutes by trading copies for independent oracles",
    ),
    "repro.core.optimal.exhaustive_schedule": (
        "OPT's brute-force oracle; OPT, the loop bound and program (3) are held to it",
        "Program (3) at figure scale",
    ),
    "repro.core.instance.UpdateInstance.config_at": (
        "Def. 1's configuration at a time; the tracker's lazy _round_rules is held to it",
        "One tracker that wins everywhere, then delete the other",
    ),
    "repro.core.instance.nested_reversal_instance": (
        "Amiri et al.'s nested reversals, the family the hard-family item runs on",
        "The paper's evaluation, regenerated from artifacts, with Amiri's hard family",
    ),
    "repro.core.instance.reversal_instance": (
        "the adversarial path reversal; engine goldens and loop-bound tests are keyed on it",
        "Break the planners and the timing on purpose",
    ),
    "repro.core.serialization.schedule_to_json": (
        "the golden digest format of engine_goldens.json and chain_goldens.json",
        "Tier-1 under two minutes by trading copies for independent oracles",
    ),
    "repro.core.serialization.schedule_from_json": (
        "the inverse of the golden digest format, held to a round trip",
        "Tier-1 under two minutes by trading copies for independent oracles",
    ),
    "repro.simulator.switch.DataSwitch.delivered_volume": (
        "the DES goldens pin it and volume conservation is judged by it",
        "One judge of concurrent intents: a plane monitor",
    ),
    "repro.trace.record.TraceRecord.stable_view": (
        "the serial / pool / resumed trace lockstep compares this projection",
        "Explain an outcome from the trace alone",
    ),
}


def module_names():
    """Every module under ``src/repro``, named from its path."""
    return {_module_name(path) for path in SRC.glob("repro/**/*.py")}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions():
    """The qualified name of every function, class and method (nested ones
    included, dunders not) of the modules off :data:`ALLOW_LIST`."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.add(qualified)
                visit(child, qualified)

    for path in SRC.glob("repro/**/*.py"):
        module = _module_name(path)
        if module not in ALLOW_LIST:
            visit(ast.parse(path.read_text(), str(path)), module)
    return found


def referenced_names():
    """Every identifier read, written or called as a name or an attribute
    in the caller trees (a definition's own ``def`` / ``class`` line is
    neither, so it never counts for itself)."""
    names = set()
    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_unreferenced_name_is_allow_listed():
    referenced = referenced_names()
    unreferenced = {
        qualified
        for qualified in definitions()
        if qualified.rsplit(".", 1)[-1] not in referenced
    }
    assert unreferenced == set(NAME_ALLOW_LIST), (
        f"referenced only by tests, not allow-listed: "
        f"{sorted(unreferenced - set(NAME_ALLOW_LIST))}; "
        f"allow-listed, now referenced: {sorted(set(NAME_ALLOW_LIST) - unreferenced)}"
    )


def reach(runs_dir):
    """Run every scenario's tiny grid and the trace CLI; print the
    scenario names and the ``repro`` modules now loaded, as JSON."""
    import contextlib
    import io

    from repro.experiments.__main__ import main
    from repro.pipeline.scenario import all_scenarios
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
    print(json.dumps({"codes": codes, "scenarios": [s.name for s in all_scenarios()], "loaded": loaded}))


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
