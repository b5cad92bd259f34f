#!/usr/bin/env python3
"""One-command phase profiles: the greedy scheduler, the dict tracker's probe,
the OPT search, a service cell, a sweep item, the cold path.

``greedy`` (the default, ``make profile``) plans a paper-scale segmented
instance with the Chronus greedy engine once untraced -- that first plan
pays for encoding the instance, which later plans of the same instance
reuse, and its wall time is printed on one line -- then plans it again,
warm (the unit the repo benchmark's ``plan-large`` times), inside a
sink-less :class:`repro.trace.TraceSession` and prints the aggregate view of
that plan's tape
(the view ``python -m repro.trace profile`` prints of a stored trace): the
hierarchical wall-clock breakdown (tracker build,
dependency analysis and its commits, round selection with each probe split
into ``split`` / ``deflect`` / ``check``, the final check) under a root span
that covers the whole run, together with the tracker's counters, what a
probe looked at per switch being updated, and how many probes a round
accepted and refused (by the split alone / by the congestion pass / skipped
by the fallback because the answer was known), with the ``split`` /
``deflect`` / ``check`` shares of the plan.  On the array tracker it
also prints, per probe, the links the congestion check decided, the
class-table entries it read (one per alive class and decided link) and
the chains it swept exactly; and per deflection, the runs it took from
its parent up to the hit and the runs it routed past it -- walked, or
copied from the parent's tail where its route rejoins the parent's.

``dense`` plans ``--plans`` Chronus schedules of the repo benchmark's
``plan-dense`` shape -- ``random_instance(16, capacity=2.0)`` seeded by
``sweep_seed(seed, 16, i)``, planned through the registered ``chronus``
planner on the dict tracker -- and splits each probe into its ``split`` /
``check`` / ``commit`` phases (the tracker's ``_split``,
``_check_new_congestion`` and ``_commit``, timed by wrappers this mode puts
around them for the run), next to the rest of the probe and greedy's final
check, with the alive classes a probe sees, how many class splits left the
class untouched and every ``tracker.*`` counter, so that layer is sized
from here.

``search`` runs OPT on ``mixed_instance(size, sweep_seed(seed, size, i))``
-- the ``sweep-paper`` shape -- under a node budget and reads off the tape
the nodes explored, the proven share, the nodes the loop-freedom bound
pruned, the include edges kept and pruned, the clones paid and the search's
microseconds per node, so a search change is sized from here.

``service`` runs ``--cells`` consecutive cells of the update service shaped
like the repo benchmark's ``service-burst`` workload, in one process and
seeded as the bench seeds that workload's cells (``--seed 42 --cells 7`` are
its cells at seed 42), the same way and reads one intent's life off the
tape: the DES event count and cost per event, the garbage collector's
collections and seconds per generation (``gc.callbacks``), the mean verify
window (``check_end - check_start``) and the wall clock split by layer
(plan / verify / dispatch / DES / admission / build / gc / loop+rest, which
sum to it; a collection is charged to ``gc``, not to the layer it
interrupted), so an execute-path change is sized from here rather than from
an ad-hoc wrapper.

``item`` runs sweep items shaped like the repo benchmark's ``sweep-paper``
workload (five schemes, node budgets 60/60, ``aug_epsilon=1``, verified)
through the registered ``sweep`` scenario's own evaluate stage into a
temporary artifact store and reads one item's life off the tape: build,
plan / measure / verify per scheme, store, and what is left, summing to the
``item:<key>`` spans' wall clock -- with the reuse counters of the
item-scoped sharing (DESIGN.md 15.1: where each judged schedule's metrics
came from -- a fresh replay, the greedy's final check, or an earlier
answer) and OPT's proven share and bound prunes, so a sweep-path change is
sized from here.

``cold`` is what a fresh process pays before the warm numbers above apply,
for the two shapes the bench plans -- ``random_instance(16)`` (``plan-dense``)
and ``segmented_instance(size)`` (``plan-large``): in new interpreters, the
medians of ``import repro``, the imports one Chronus plan needs, the build,
the first plan (which derives the instance's cached tables and pays the lazy
imports the plan triggers) and a warm re-plan, and what the process has
loaded by then -- modules, and whether numpy and scipy were among them.

Usage::

    python scripts/profile.py                  # 6000 switches (Fig. 10 max)
    python scripts/profile.py --size 4000      # the bench-gate size
    python scripts/profile.py greedy --size 10000 --segments 16   # nested reversals
    python scripts/profile.py --json           # machine-readable snapshot
    python scripts/profile.py --memory         # peak RSS of the stage too
    python scripts/profile.py dense            # 200 plan-dense plans, seed 7
    python scripts/profile.py dense --seed 3001 --plans 20 --json
    python scripts/profile.py search           # OPT, 9 switches, 60 nodes, seed 7
    python scripts/profile.py search --size 12 --nodes 300 --repeat 50
    python scripts/profile.py service          # one burst-shaped cell, seed 7
    python scripts/profile.py service --seed 301 --repeat 9
    python scripts/profile.py service --seed 42 --cells 7 --repeat 3   # the bench's cells
    python scripts/profile.py item             # 5 items, 9 switches, seed 7
    python scripts/profile.py item --size 12 --seed 101 --repeat 50
    python scripts/profile.py cold             # 16 and 10000 switches, median of 5
    python scripts/profile.py cold --size 2000 --repeat 12

``--memory`` reproduces BENCH_sweep.json's memory column locally: the
stage (instance build + schedule) re-runs in a forked child and its peak
RSS is reported next to the wall-clock breakdown.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core.greedy import greedy_schedule  # noqa: E402
from repro.core.instance import segmented_instance  # noqa: E402
from repro.perf import measure_peak_rss  # noqa: E402
from repro.pipeline.cli import emit_json, script_parser  # noqa: E402
from repro.trace import TraceSession, aggregate, render_report  # noqa: E402
from repro.trace.recorder import _CURRENT  # noqa: E402  (gc attribution, service mode)


def _stage(size: int, seed: int, segments: int) -> None:
    """The profiled stage, self-contained for the memory-measurement fork."""
    greedy_schedule(segmented_instance(size, seed=seed, segments=segments))


#: bench/workloads.py::ServiceBurst.CONFIG -- the cell the service mode times.
BURST_CELL = dict(
    pods=32, pod_size=12, requests=100, mean_interarrival=0.25, max_queue=1024, planners=4
)
#: Layer -> the spans (recorded or aggregate) whose durations it sums.
SERVICE_LAYERS = {
    "plan": ("plan",),
    "verify": ("validate.verifier.verify",),
    "dispatch": ("controller.resilient.dispatch",),
    "des": ("simulator.engine.run",),
    "admission": ("service.admission.offer", "service.admission.release"),
    "build": ("service.build",),
}
_LAYER_OF = {name: layer for layer, names in SERVICE_LAYERS.items() for name in names}


def _open_layer():
    """The layer whose span or timer is open where the running code is, if any.

    Reads the recorder's current frame: a span is named by ``name``, a
    timer by its dotted ``path`` (a span's ``path`` is empty).
    """
    frame = _CURRENT.get()
    while frame is not None:
        layer = _LAYER_OF.get(frame.path or frame.name)
        if layer is not None and not frame.closed:
            return layer
        frame = frame.enclosing
    return None


class _GcClock:
    """A ``gc.callbacks`` hook: collections and seconds per generation, each
    pause also charged to the layer it interrupted (see :func:`_open_layer`)."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.in_layer = dict.fromkeys(SERVICE_LAYERS, 0.0)
        self._layer = None
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._layer = _open_layer()
            self._started = time.perf_counter()
            return
        seconds = time.perf_counter() - self._started
        self.collections[info["generation"]] += 1
        self.seconds[info["generation"]] += seconds
        if self._layer is not None:
            self.in_layer[self._layer] += seconds


def _service_pass(seed: int, cells: int) -> dict:
    """Run ``cells`` burst-shaped cells in one session, seeded as the bench
    seeds them, and read each layer off the tape.

    None of the layers' timers runs inside another, so each total is that
    layer's own time; a collection is a layer of its own (``gc``) and is
    taken out of the layer it interrupted, so the layers, ``gc`` and the
    rest sum to the wall time.  Every verdict's window is kept on the way.
    """
    from repro.experiments.sweep import sweep_seed
    from repro.service.service import ServiceConfig, run_cell
    from repro.updates.registry import get_planner

    configs = [
        ServiceConfig(seed=sweep_seed(seed, BURST_CELL["pods"], index), **BURST_CELL)
        for index in range(cells)
    ]
    planner = get_planner(configs[0].scheme)
    verify = planner.verify
    windows = []

    def judged(instance, schedule, **options):
        verdict = verify(instance, schedule, **options)
        windows.append(verdict.check_end - verdict.check_start)
        return verdict

    clock = _GcClock()
    planner.verify = judged  # shadows the method on this planner object only
    gc.callbacks.append(clock)
    try:
        with TraceSession(scenario="profile", run_id=f"service-{seed}") as session:
            started = time.perf_counter()
            reports = [run_cell(config) for config in configs]
            wall = time.perf_counter() - started
    finally:
        gc.callbacks.remove(clock)
        del planner.verify
    layers = {
        layer: sum(
            record.duration_ms
            for record in session.tape
            if record.kind == "span" and record.name in names
        )
        / 1000.0
        - clock.in_layer[layer]
        for layer, names in SERVICE_LAYERS.items()
    }
    gc_seconds = sum(clock.seconds)
    return {
        "wall_s": wall,
        "cells": cells,
        "events": aggregate(session.tape)["counters"]["simulator.engine.events"],
        "layers_s": layers,
        "gc": {
            "seconds": gc_seconds,
            "seconds_by_generation": clock.seconds,
            "collections_by_generation": clock.collections,
        },
        "rest_s": wall - sum(layers.values()) - gc_seconds,
        "verifies": len(windows),
        "verify_window_mean": statistics.fmean(windows) if windows else None,
        "summaries": [report.summary for report in reports],
    }


def _profile_service(seed: int, cells: int, repeat: int, as_json: bool) -> int:
    best = min(
        (_service_pass(seed, cells) for _ in range(repeat)), key=lambda p: p["wall_s"]
    )
    if as_json:
        emit_json(best)
        return 0
    wall, events, layers = best["wall_s"], best["events"], best["layers_s"]
    total = {
        key: sum(summary[key] for summary in best["summaries"])
        for key in ("completed", "superseded", "batches")
    }
    print(
        f"service x{cells} cell(s) (burst shape, seed {seed}, best of {repeat}): "
        f"{wall:.4f}s completed={total['completed']} superseded={total['superseded']} "
        f"batches={total['batches']}"
    )
    print(
        f"  DES events {events}   {1e6 * layers['des'] / max(events, 1):.2f} us/event"
    )
    collected = best["gc"]
    print(
        "  gc collections by generation "
        + " / ".join(map(str, collected["collections_by_generation"]))
        + "   seconds "
        + " / ".join(f"{s:.4f}" for s in collected["seconds_by_generation"])
    )
    if best["verifies"]:
        print(
            f"  verify window {best['verify_window_mean']:.1f} steps on average "
            f"over {best['verifies']} verdicts"
        )
    rows = dict(layers, gc=collected["seconds"])
    rows["loop+rest"] = best["rest_s"]
    for layer, seconds in rows.items():
        print(f"  {layer:<10} {seconds:.4f}s  {seconds / wall:6.1%}")
    return 0


#: bench/workloads.py::SweepPaper -- the item the item mode times.
PAPER_ITEM = dict(
    schemes=("chronus", "or", "opt", "tp", "aug"),
    opt_budget=600.0,
    or_budget=600.0,
    opt_node_budget=60,
    or_node_budget=60,
    aug_epsilon=1.0,
    verify=True,
)
#: Span or timer name -> the phase of an item's life it is.
ITEM_PHASES = {
    "core.instance.build": "build",
    "plan": "plan",
    "analysis.metrics.measure": "measure",
    "validate.verifier.verify": "verify",
    "pipeline.store.append": "store",
}
REUSE_COUNTERS = (
    "sweep.incumbent.reused",
    "sweep.judged.fresh",
    "sweep.judged.greedy",
    "sweep.judged.reused",
)


def _item_phases(tape) -> dict:
    """``{"wall": s, phase: {scheme (or "all"): s}}`` off a tape of items.

    A measure that ran inside a plan span (AUG judging its claim on the true
    capacities) counts as that scheme's measure, not as its plan.
    """
    by_id = {record.span_id: record for record in tape if record.kind == "span"}
    seconds_by = {phase: {} for phase in ITEM_PHASES.values()}
    wall = 0.0

    def add(phase: str, scheme: str, seconds: float) -> None:
        seconds_by[phase][scheme] = seconds_by[phase].get(scheme, 0.0) + seconds

    for record in by_id.values():
        seconds = (record.duration_ms or 0.0) / 1000.0
        if record.name.startswith("item:"):
            wall += seconds
        elif record.name in ITEM_PHASES:
            phase = ITEM_PHASES[record.name]
            scheme = record.attributes.get("scheme", "all")
            add(phase, scheme, seconds)
            if phase != "plan" and by_id[record.parent_id].name == "plan":
                add("plan", scheme, -seconds)
    return {"wall": wall, **seconds_by}


def _profile_item(size: int, seed: int, items: int, as_json: bool) -> int:
    import tempfile

    import repro.experiments  # noqa: F401  (registers the scenarios)
    from repro.pipeline.context import WorkerContext
    from repro.pipeline.scenario import get_scenario
    from repro.pipeline.store import ArtifactStore
    from repro.trace.recorder import recorder

    scenario = get_scenario("sweep")
    overrides = dict(PAPER_ITEM, switch_counts=(size,), instances_per_size=items, base_seed=seed)
    with tempfile.TemporaryDirectory(prefix="profile-item-") as root:
        handle = ArtifactStore(root=root).create("sweep", scenario.params_with(overrides))
        params = handle.params
        with TraceSession(scenario="profile", run_id=f"item-{size}-{seed}") as session:
            for item in scenario.items(params):
                with recorder.span(f"item:{item['key']}"):
                    record = scenario.evaluate(item, params, WorkerContext())
                    with recorder.timer("pipeline.store.append"):
                        handle.append(record)
        handle.finish(status="complete", records=items)
    phases = _item_phases(session.tape)
    counters = aggregate(session.tape)["counters"]
    reuse = {name: counters.get(name, 0) for name in REUSE_COUNTERS}
    searches = [r for r in session.tape if r.kind == "span" and r.name == "opt.search"]
    if as_json:
        opt = {
            "searches": len(searches),
            "proven": sum(bool(r.attributes["proven"]) for r in searches),
            "bound_pruned": counters.get("search.bound.pruned", 0),
        }
        emit_json({**phases, "items": items, "counters": reuse, "opt": opt})
        return 0
    wall = phases.pop("wall")
    schemes = list(params["schemes"])
    print(
        f"sweep item[{size}] x{items} (seed {seed}, sweep-paper shape): "
        f"{wall:.4f}s  {1e3 * wall / items:.2f} ms/item"
    )
    print(f"  {'':<8}" + "".join(f"{scheme:>9}" for scheme in schemes) + f"{'total':>9}  share")
    phases["rest"] = {"all": wall - sum(sum(cells.values()) for cells in phases.values())}
    for phase, cells in phases.items():
        blank = "" if "all" in cells else "-"  # a phase without schemes has no columns
        row = "".join(
            f"{cells[scheme]:9.4f}" if scheme in cells else f"{blank:>9}"
            for scheme in schemes
        )
        total = sum(cells.values())
        print(f"  {phase:<8}{row}{total:9.4f}  {total / wall:5.1%}")
    print(
        f"  reuse: incumbent {reuse['sweep.incumbent.reused']}/{items} items, schedules "
        f"judged {reuse['sweep.judged.fresh']} by a fresh replay + "
        f"{reuse['sweep.judged.greedy']} by the greedy's final check + "
        f"{reuse['sweep.judged.reused']} reused"
    )
    print(
        f"  opt: {_proven_line(searches)}, "
        f"{counters.get('search.bound.pruned', 0)} nodes pruned by the loop-freedom bound"
    )
    return 0


#: bench/workloads.py::PlanDense -- the shape the dense mode plans.
DENSE_SHAPE = dict(size=16, capacity=2.0)
#: Dict-tracker method -> the probe phase the dense mode times it as.
PROBE_PHASES = {"_split": "split", "_check_new_congestion": "check", "_commit": "commit"}


@contextmanager
def _probe_phases(tally: dict):
    """Time the dict tracker's probe phases while the block runs.

    Each method of :data:`PROBE_PHASES` runs inside a recorder timer of its
    phase's name, so the tape files it under the probe that called it;
    ``tally`` gathers the alive classes each split sees and the class splits
    made and left untouched.  The originals are put back on exit.
    """
    from repro.core import intervals
    from repro.trace.recorder import recorder

    tracker_class = intervals.IntervalTracker
    originals = {name: getattr(tracker_class, name) for name in PROBE_PHASES}
    split_class = intervals._split_class

    def timed(name, method):
        def wrapper(self, *args, **kwargs):
            if name == "_split":
                tally["splits"] += 1
                tally["alive"] += len(self._alive)
            with recorder.timer(PROBE_PHASES[name]):
                return method(self, *args, **kwargs)

        return wrapper

    def counted(*args):
        result = split_class(*args)
        tally["class_splits"] += 1
        tally["untouched"] += result is None
        return result

    for name, method in originals.items():
        setattr(tracker_class, name, timed(name, method))
    intervals._split_class = counted
    try:
        yield
    finally:
        for name, method in originals.items():
            setattr(tracker_class, name, method)
        intervals._split_class = split_class


def _profile_dense(seed: int, plans: int, as_json: bool) -> int:
    from repro.core.instance import random_instance
    from repro.experiments.sweep import sweep_seed
    from repro.updates.registry import get_planner

    size, capacity = DENSE_SHAPE["size"], DENSE_SHAPE["capacity"]
    instances = [
        random_instance(size, seed=sweep_seed(seed, size, index), capacity=capacity)
        for index in range(plans)
    ]
    planner = get_planner("chronus")
    tally = dict.fromkeys(("splits", "alive", "class_splits", "untouched"), 0)
    with _probe_phases(tally), TraceSession(scenario="profile", run_id=f"dense-{seed}") as session:
        started = time.perf_counter()
        for instance in instances:
            planner.plan(instance)
        wall = time.perf_counter() - started
    profile = aggregate(session.tape)
    spans, counters = profile["spans"], profile["counters"]
    probe = spans.get("greedy.select.tracker.probe", {"calls": 0, "seconds": 0.0})
    phases = {
        phase: spans.get(f"greedy.select.tracker.probe.{phase}", {"calls": 0, "seconds": 0.0})
        for phase in PROBE_PHASES.values()
    }
    phases["probe rest"] = {
        "calls": probe["calls"],
        "seconds": probe["seconds"] - sum(cell["seconds"] for cell in phases.values()),
    }
    phases["final check"] = spans.get("greedy.final_check", {"calls": 0, "seconds": 0.0})
    rounds = spans.get("greedy.select", {}).get("calls", 0)
    tracker_counters = {
        name: value for name, value in counters.items() if name.startswith("tracker.")
    }
    if as_json:
        emit_json(
            {
                "seed": seed,
                "plans": plans,
                "wall_s": wall,
                "rounds": rounds,
                "probes": probe["calls"],
                "phases": phases,
                "tally": tally,
                "counters": tracker_counters,
            }
        )
        return 0
    print(
        f"dense x{plans} plans (random[{size}], capacity {capacity}, seed {seed}): "
        f"{wall:.4f}s  {plans / wall:.1f} plans/s  {rounds} rounds  "
        f"{probe['calls']} probes (traced, phases wrapped)"
    )
    for phase, cell in phases.items():
        print(
            f"  {phase:<12}{cell['calls']:>8} calls {cell['seconds']:9.4f}s "
            f"{cell['seconds'] / wall:6.1%}  "
            f"{1e6 * cell['seconds'] / max(cell['calls'], 1):7.1f} us/call"
        )
    splits = max(tally["splits"], 1)
    sweeps = counters.get("tracker.sweeps", 0)
    print(
        f"  per probe: {tally['alive'] / splits:.1f} alive classes; "
        f"{tally['class_splits']} class splits, {tally['untouched']} left the class "
        f"untouched ({tally['untouched'] / max(tally['class_splits'], 1):.0%}); "
        f"{counters.get('tracker.sweep_intervals', 0) / max(sweeps, 1):.1f} intervals per sweep"
    )
    for name, value in tracker_counters.items():
        print(f"  {name:<36}{value:>8}")
    return 0


def _proven_line(searches) -> str:
    """``proven k/n (share)`` over the ``opt.search`` records of a tape."""
    proven = sum(bool(record.attributes["proven"]) for record in searches)
    return f"proven {proven}/{len(searches)} ({proven / max(len(searches), 1):.2f})"


def _profile_search(size: int, seed: int, instances: int, nodes: int, as_json: bool) -> int:
    from repro.core.optimal import optimal_schedule
    from repro.experiments.sweep import mixed_instance, sweep_seed

    with TraceSession(scenario="profile", run_id=f"search-{size}-{seed}") as session:
        for index in range(instances):
            instance = mixed_instance(size, sweep_seed(seed, size, index))
            optimal_schedule(instance, time_budget=600, node_budget=nodes)
    profile = aggregate(session.tape)
    searches = [r for r in session.tape if r.kind == "span" and r.name == "opt.search"]
    explored = sum(int(r.attributes["explored"]) for r in searches)
    if as_json:
        profile["explored"] = explored
        emit_json(profile)
        return 0
    counters = profile["counters"]
    seconds = profile["spans"]["opt.search"]["seconds"]
    print(
        f"opt.search[{size}] x{instances} (seed {seed}, node budget {nodes}): "
        f"{seconds:.4f}s  nodes {explored}  {_proven_line(searches)}"
    )
    print(
        f"  bound pruned {counters.get('search.bound.pruned', 0)}  "
        f"includes kept {counters.get('search.include.kept', 0)}  "
        f"pruned {counters.get('search.include.pruned', 0)}  "
        f"clones {counters.get('search.clones', 0)}  "
        f"sweeps {counters.get('tracker.sweeps', 0)}"
    )
    print(f"  {1e6 * seconds / max(explored, 1):.1f} us/node")
    return 0


#: Run in a new interpreter: what ``import repro`` costs and loads, then
#: what one plan of one shape costs a fresh process -- the imports it needs,
#: the build, the first plan (which pays the lazy imports it triggers) and a
#: warm re-plan -- and what the process has loaded by then.
COLD_PROBE = """\
import json, sys, time
started = time.perf_counter()
import repro
bare = time.perf_counter()
from repro.core.instance import {generator}
from repro.updates.registry import get_planner
imported = time.perf_counter()
instance = {generator}({size}, seed={seed}{options})
built = time.perf_counter()
get_planner("chronus").plan(instance)
first = time.perf_counter()
get_planner("chronus").plan(instance)
print(json.dumps(dict(
    seconds={{"import repro": bare - started, "imports": imported - bare,
              "build": built - imported, "first plan": first - built,
              "warm plan": time.perf_counter() - first}},
    modules=len(sys.modules),
    repro_modules=sum(name.split(".")[0] == "repro" for name in sys.modules),
    numpy="numpy" in sys.modules,
    scipy="scipy" in sys.modules,
)))
"""


def _cold_probe(generator: str, size: int, seed: int, options: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    code = COLD_PROBE.format(generator=generator, size=size, seed=seed, options=options)
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _profile_cold(size: int, seed: int, repeat: int, as_json: bool) -> int:
    # The two bench shapes a process plans: plan-dense's short global reroute
    # (dict tracker) and plan-large's long path (array tracker).
    plans = {
        "random[16]": ("random_instance", 16, ", capacity=2.0"),
        f"segmented[{size}]": ("segmented_instance", size, ""),
    }
    shapes = {}
    for label, (generator, switches, options) in plans.items():
        probes = [_cold_probe(generator, switches, seed, options) for _ in range(repeat)]
        last = probes[-1]
        shapes[label] = {
            "medians_ms": {
                phase: 1e3 * statistics.median(probe["seconds"][phase] for probe in probes)
                for phase in last["seconds"]
            },
            **{key: last[key] for key in ("modules", "repro_modules", "numpy", "scipy")},
        }
    if as_json:
        emit_json({"seed": seed, "repeat": repeat, "shapes": shapes})
        return 0
    print(f"cold path (fresh interpreters, seed {seed}, median of {repeat}, ms):")
    phases = list(next(iter(shapes.values()))["medians_ms"])
    print(f"  {'shape':<18}" + "".join(f"{phase:>14}" for phase in phases) + "   loaded")
    for label, shape in shapes.items():
        print(
            f"  {label:<18}"
            + "".join(f"{shape['medians_ms'][phase]:14.1f}" for phase in phases)
            + f"   {shape['modules']} modules ({shape['repro_modules']} repro), numpy "
            f"{'loaded' if shape['numpy'] else 'not loaded'}, scipy "
            f"{'loaded' if shape['scipy'] else 'not loaded'}"
        )
    return 0


def _refusals_line(profile: dict) -> str:
    """Probes accepted / refused per greedy round, off the refusal counters."""
    counters, spans = profile["counters"], profile["spans"]
    rounds = spans.get("greedy.select", {}).get("calls", 0)
    probes = spans.get("greedy.select.tracker.probe", {}).get("calls", 0)
    by_split = counters.get("tracker.probe.refused.split", 0)
    by_congestion = counters.get("tracker.probe.refused.congestion", 0)
    accepted = probes - by_split - by_congestion
    per_round = max(rounds, 1)
    return (
        f"  per round ({rounds} rounds): {accepted / per_round:.2f} probes accepted, "
        f"{(by_split + by_congestion) / per_round:.2f} refused "
        f"({by_split} by the split, {by_congestion} by congestion), "
        f"{counters.get('greedy.fallback.skipped', 0)} fallback re-probes skipped"
    )


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument(
        "mode",
        nargs="?",
        choices=("greedy", "dense", "search", "service", "item", "cold"),
        default="greedy",
        help="what to profile (default greedy)",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="switches to update (default: greedy 6000, search and item 9, cold 10000)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="instance seed (greedy default: the size, matching the bench "
        "harness; dense, search, service, item and cold default: 7)",
    )
    parser.add_argument(
        "--segments",
        type=int,
        default=4,
        help="greedy mode: rerouted segments on the path (default 4, the "
        "bench workloads' shape; 16 and 32 are the many-round shapes)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="service mode: passes to run, the fastest is reported; search "
        "and item mode: instances to run, totals are reported; cold mode: "
        "fresh processes per shape, medians are reported (default 5)",
    )
    parser.add_argument(
        "--nodes", type=int, default=60, help="search mode: OPT node budget (default 60)"
    )
    parser.add_argument(
        "--plans", type=int, default=200, help="dense mode: plans to run (default 200)"
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=1,
        help="service mode: consecutive cells per pass in one process, seeded "
        "as the bench seeds a workload's cells (default 1)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the raw snapshot as JSON"
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="also report the stage's peak RSS (forked re-run, see above)",
    )
    args = parser.parse_args(argv)
    if args.mode != "greedy":
        seed = 7 if args.seed is None else args.seed
        repeat = max(1, args.repeat)
        if args.mode == "dense":
            return _profile_dense(seed, max(1, args.plans), args.json)
        if args.mode == "service":
            return _profile_service(seed, max(1, args.cells), repeat, args.json)
        if args.mode == "item":
            return _profile_item(args.size or 9, seed, repeat, args.json)
        if args.mode == "cold":
            return _profile_cold(args.size or 10_000, seed, repeat, args.json)
        return _profile_search(args.size or 9, seed, repeat, args.nodes, args.json)

    if args.size is None:
        args.size = 6000
    seed = args.size if args.seed is None else args.seed
    instance = segmented_instance(args.size, seed=seed, segments=args.segments)
    started = time.perf_counter()
    greedy_schedule(instance)
    print(
        f"greedy[{args.size}] first plan (encodes the instance): "
        f"{time.perf_counter() - started:.3f}s"
    )
    with TraceSession(scenario="profile", run_id=f"greedy-{args.size}") as session:
        started = time.perf_counter()
        result = greedy_schedule(instance)
        elapsed = time.perf_counter() - started
    profile = aggregate(session.tape)
    print(
        f"greedy[{args.size}] warm plan: {elapsed:.3f}s "
        f"feasible={result.feasible} makespan={result.makespan}"
    )
    memory = None
    if args.memory:
        memory = measure_peak_rss(_stage, args.size, seed, args.segments)
        print(
            f"greedy[{args.size}] memory: peak_rss={memory['peak_rss_mb']}MB "
            f"(baseline {memory['baseline_rss_mb']}MB, "
            f"stage delta {memory['delta_mb']}MB)"
        )
    counters = profile["counters"]
    shares = _phase_shares(profile["spans"])
    deflections = counters.get("tracker.array.deflections")
    per_deflection = None
    if deflections:  # the array tracker ran
        routed = counters["tracker.array.deflect_runs"]
        copied = counters.get("tracker.array.tail_runs", 0)
        per_deflection = {
            "deflections": deflections,
            "runs_shared": counters["tracker.array.shared_runs"] / deflections,
            "runs_routed": routed / deflections,
            "runs_walked": (routed - copied) / deflections,
            "runs_copied": copied / deflections,
            "views": counters.get("tracker.array.materialised", 0) / deflections,
        }
    if args.json:
        if memory is not None:
            profile["memory"] = memory
        profile["phase_shares"] = shares
        if per_deflection is not None:
            profile["per_deflection"] = per_deflection
        emit_json(profile)
    else:
        print(render_report(profile))
        print(_refusals_line(profile))
        print(
            "  phases of the warm plan: "
            + ", ".join(f"{phase} {share:.1%}" for phase, share in shares.items())
            + " (deflect inside split)"
        )
        probes = profile["spans"].get("greedy.select.tracker.probe", {}).get("calls")
        if probes and per_deflection is not None:
            print(
                f"  per probe: {counters['tracker.array.links_decided'] / probes:.1f} "
                f"links decided, "
                f"{counters['tracker.array.entries_read'] / probes:.1f} class-table "
                f"entries read, "
                f"{counters.get('tracker.array.exact_sweeps', 0) / probes:.2f} "
                f"links swept ({len(instance.switches_to_update)} switches to update "
                f"on a {len(instance.old_path)}-switch path)"
            )
            print(
                f"  per deflection ({deflections}): "
                f"{per_deflection['runs_shared']:.1f} runs shared with the parent "
                f"up to the hit, {per_deflection['runs_routed']:.1f} runs routed: "
                f"{per_deflection['runs_walked']:.1f} walked, "
                f"{per_deflection['runs_copied']:.1f} copied from the parent's tail; "
                f"{per_deflection['views']:.2f} views materialised"
            )
    return 0


def _phase_shares(spans: dict) -> dict:
    """The probe phases' shares of the whole plan (the ``greedy`` root span).

    Every span named ``split`` / ``deflect`` / ``check`` counts, wherever
    the tracker ran it (probes, applies); ``deflect`` lies inside ``split``.
    """
    root = spans.get("greedy", {}).get("seconds") or 0.0
    shares = {}
    for phase in ("split", "deflect", "check"):
        seconds = sum(
            cell["seconds"] for path, cell in spans.items() if path.rsplit(".", 1)[-1] == phase
        )
        shares[phase] = seconds / root if root else 0.0
    return shares


if __name__ == "__main__":
    raise SystemExit(main())
