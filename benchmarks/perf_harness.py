"""Standalone perf harness: time the hot paths, append to BENCH_sweep.json.

This is the perf *trajectory* of the repo: every run appends one JSON
record (machine facts + per-benchmark timings) to ``BENCH_sweep.json`` at
the repo root, so regressions and wins stay visible across commits.  Run
it via ``scripts/bench.py`` (or ``make bench``); ``--quick`` shrinks the
sizes for CI-style smoke runs.

What it measures:

* **greedy** -- the Chronus scheduler from 400 up to 100K switches (best
  of ``repeats`` runs at the small sizes, single runs at 20K+; the box
  this repo grew on has noisy wall clocks).  Every size is long-path, so
  all of them plan on the struct-of-arrays tracker -- the dict tracker
  needs minutes at 20K+.
* **greedy_dense** -- seconds per plan over 200 16-switch global reroutes
  (``random_instance(16, capacity=2.0)``): the short-path side of
  :func:`repro.core.tracker.make_tracker`, where rounds, not switches,
  cost.
* **tracker_grid** -- greedy ms/plan with each tracker forced, on random
  and segmented instances either side of the factory's threshold, plus
  ``same_schedules`` (the two must return equal ``GreedyResult``s); and
  on the array tracker alone at 10 000 switches x 4 / 16 / 32 segments
  (feasible seeds), the cells in which cost grows with the segment count.
* **memory** -- peak RSS per greedy stage (instance build + schedule),
  measured in a forked child per size so one stage's high-water mark
  cannot mask another's.
* **opt** -- the budgeted branch-and-bound at 30 switches over a fixed
  seed batch: wall time, nodes explored, node throughput, proven share.
* **clone** -- ``IntervalTracker.clone()`` micro-cost on a 1K-switch
  end state, against an eager entry-by-entry copy of the same state (the
  pre-copy-on-write behaviour), giving the structural-sharing speedup.
* **sweep** -- the ``sweep`` scenario, serial vs. ``RunContext(workers=N)``
  (the ``run --workers N`` path), asserting the records are identical and
  reporting the speedup.
* **service** -- the full update-service loop (admission, merging,
  planning, verification, resilient execution on the shared DES plane):
  wall-clock updates/sec plus the virtual p50/p95 latency, with
  conformance and lockstep-determinism flags.
* **aug** -- strict greedy vs. the epsilon-augmented planner over one
  seeded batch: planning wall clock and completed-plan counts (what the
  transient capacity headroom buys; DESIGN.md §15).
* **verify** -- seconds per ``verify_schedule`` call on one intent of the
  32x12-pod service network (a short update inside a 416-node settle
  window: the steady-tail replication's case) and on a 30-switch
  ``mixed_instance`` (a small window: the transient walk's case).

Timings reuse :func:`conftest.timed` / :func:`conftest.run_once` so the
plain ``[bench]`` lines appear in any environment.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:  # allow direct execution
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

import repro.core.tracker as tracker_module
from benchmarks.conftest import run_once, timed
from repro.core.cow import CowIndex
from repro.core.greedy import greedy_schedule
from repro.core.instance import instance_from_paths, random_instance, segmented_instance
from repro.core.intervals import IntervalTracker
from repro.core.optimal import optimal_schedule
from repro.experiments.sweep import mixed_instance
from repro.perf import measure_peak_rss
from repro.pipeline import RunContext, run_in_memory
from repro.runtime import available_cpus

BENCH_FILE = _REPO_ROOT / "BENCH_sweep.json"


# A row whose first run is shorter than this gets FAST_ROW_REPEATS runs: the
# minimum of two or three ~13 ms runs moves by more than the gates' 1.3x on
# a shared box (greedy[400] tripped its own gate on timer noise), and ten
# such runs cost under a second.
FAST_ROW_SECONDS = 0.05
FAST_ROW_REPEATS = 10


def _best_of(repeats, fn, *args, label=None, **kwargs):
    """Best wall clock over ``repeats`` runs (noise-resistant) + result."""
    result = run_once(None, fn, *args, label=label, **kwargs)
    best = run_once.last_elapsed
    if best < FAST_ROW_SECONDS:
        repeats = max(repeats, FAST_ROW_REPEATS)
    for _ in range(repeats - 1):
        result = run_once(None, fn, *args, label=label, **kwargs)
        best = min(best, run_once.last_elapsed)
    return result, best


def bench_greedy(
    sizes: Sequence[int] = (400, 1000, 4000, 6000, 20000, 50000, 100000),
    repeats: int = 3,
) -> Dict[str, float]:
    """Greedy scheduler wall clock per network size (seconds, best-of).

    6000 switches is the paper's largest Fig. 10 size; 20K-100K probe the
    struct-of-arrays tracker's datacenter-scale headroom and run once
    each (at that scale a run is seconds long and best-of-N only adds
    minutes of wall clock for noise the gate's 1.3x margin absorbs).
    """
    out: Dict[str, float] = {}
    for size in sizes:
        instance = segmented_instance(size, seed=size)
        result, best = _best_of(
            repeats if size < 20000 else 1,
            greedy_schedule,
            instance,
            label=f"greedy[{size}] run",
        )
        out[str(size)] = round(best, 4)
        print(f"[bench] greedy n={size}: best {best:.3f}s (feasible={result.feasible})")
    return out


def _greedy_stage(size: int) -> None:
    """One self-contained greedy bench stage (runs in the measurement fork)."""
    greedy_schedule(segmented_instance(size, seed=size))


def bench_greedy_memory(
    sizes: Sequence[int] = (4000, 20000, 50000, 100000),
) -> Dict[str, Dict[str, float]]:
    """Peak RSS of each greedy stage in MiB (the record's memory column).

    Each stage builds its own instance and schedules it inside a forked
    child: ``ru_maxrss`` is a per-process high-water mark, so sharing one
    process would let the largest stage mask all others.  ``delta_mb`` is
    the stage's growth over the inherited process image and is the
    comparable number across machines; reproduce locally with
    ``scripts/profile.py --memory``.
    """
    out: Dict[str, Dict[str, float]] = {}
    for size in sizes:
        stats = measure_peak_rss(_greedy_stage, size)
        out[str(size)] = stats
        print(
            f"[bench] memory greedy n={size}: peak={stats['peak_rss_mb']}MB "
            f"delta={stats['delta_mb']}MB"
        )
    return out


def _dense_batch(switch_count: int, plans: int):
    return [
        random_instance(switch_count, seed=9000 + index, capacity=2.0)
        for index in range(plans)
    ]


def _plan_all(instances):
    return [greedy_schedule(instance) for instance in instances]


def bench_greedy_dense(
    switch_count: int = 16, plans: int = 200, repeats: int = 5
) -> Dict[str, object]:
    """Seconds per greedy plan over a batch of small global reroutes."""
    batch = _dense_batch(switch_count, plans)
    results, best = _best_of(repeats, _plan_all, batch, label="greedy_dense run")
    per_plan = best / plans
    feasible = sum(1 for result in results if result.feasible)
    print(
        f"[bench] greedy_dense {plans}x{switch_count}sw: "
        f"{per_plan * 1e3:.3f} ms/plan ({feasible}/{plans} feasible)"
    )
    return {
        "switches": switch_count,
        "plans": plans,
        "seconds_per_plan": round(per_plan, 7),
        "feasible": feasible,
    }


def _feasible_batch(size: int, segments: int, plans: int) -> List:
    """The first ``plans`` seeds from 9100 on which greedy finds a schedule.

    Planning each candidate once is also what warms the instance's cached
    encodings, so the timed passes measure plans, not builds.
    """
    batch: List = []
    seed = 9100
    while len(batch) < plans:
        instance = segmented_instance(size, seed=seed, segments=segments)
        if greedy_schedule(instance).feasible:
            batch.append(instance)
        seed += 1
    return batch


def bench_tracker_grid(
    random_sizes: Sequence[int] = (16, 32, 64),
    segmented_sizes: Sequence[int] = (50, 100, 200, 400),
    repeats: int = 3,
    long_size: int = 10000,
    long_segments: Sequence[int] = (4, 16, 32),
    long_plans: int = 4,
) -> Dict[str, object]:
    """Greedy ms/plan on each tracker, either side of the factory threshold.

    Each cell plans one seeded batch twice, with the factory's threshold
    moved to force one tracker class and then the other, and compares the
    ``GreedyResult`` lists.  Random batches shrink with size (a 64-switch
    global reroute is ~0.5 s on the array tracker).  The ``long_size``
    cells run on the array tracker only (the dict tracker needs minutes
    there): one per segment count, ``long_plans`` feasible instances each
    -- the shapes whose rounds, probes and deflections grow with the
    segments while the path stays put.
    """
    cells = [
        (f"random[{size}]", _dense_batch(size, 320 // size))
        for size in random_sizes
    ] + [
        (
            f"segmented[{size}]",
            [segmented_instance(size, seed=9000 + index) for index in range(20)],
        )
        for size in segmented_sizes
    ]
    out: Dict[str, object] = {}
    same = True
    original = tracker_module.ARRAY_TRACKER_MIN_HOPS
    try:
        for name, batch in cells:
            row: Dict[str, object] = {
                "hops": len(batch[0].old_path) + len(batch[0].new_path),
                "plans": len(batch),
            }
            results = {}
            for key, threshold in (("array", 0), ("dict", sys.maxsize)):
                tracker_module.ARRAY_TRACKER_MIN_HOPS = threshold
                results[key], best = _best_of(
                    repeats, _plan_all, batch, label=f"tracker_grid {name} {key}"
                )
                row[f"{key}_ms"] = round(best / len(batch) * 1e3, 3)
            same = same and results["array"] == results["dict"]
            out[name] = row
            print(
                f"[bench] tracker_grid {name} ({row['hops']} hops): "
                f"array={row['array_ms']}ms dict={row['dict_ms']}ms per plan"
            )
    finally:
        tracker_module.ARRAY_TRACKER_MIN_HOPS = original
    for segments in long_segments:
        batch = _feasible_batch(long_size, segments, long_plans)
        name = f"segmented[{long_size}x{segments}]"
        _results, best = _best_of(repeats, _plan_all, batch, label=f"tracker_grid {name} array")
        out[name] = {
            "hops": len(batch[0].old_path) + len(batch[0].new_path),
            "plans": len(batch),
            "segments": segments,
            "array_ms": round(best / len(batch) * 1e3, 3),
        }
        print(f"[bench] tracker_grid {name}: array={out[name]['array_ms']}ms per plan")
    out["same_schedules"] = same
    print(f"[bench] tracker_grid same_schedules={same}")
    return out


#: What the ``opt`` row's node count means: ``scripts/bench.py``'s
#: ``opt_regression`` compares ``nodes_per_sec`` only between records with
#: the same label.  ``"array"`` (records #6-#14) counted nodes of the search
#: without the loop-freedom bound, whose nodes are fewer and dearer;
#: records before #6 measured a different search altogether.
OPT_ENGINE = "array-loop-bound"


def bench_opt(
    switch_count: int = 30,
    seeds: Sequence[int] = tuple(range(8)),
    budget: float = 2.0,
) -> Dict[str, object]:
    """Budgeted OPT search over a fixed seed batch at one size.

    The record's ``"engine"`` is :data:`OPT_ENGINE`; ``proven_share`` is
    ``proven`` over the batch.
    """
    explored = 0
    elapsed = 0.0
    proven = 0
    for seed in seeds:
        instance = mixed_instance(switch_count, seed * 7919 + switch_count)
        result = optimal_schedule(instance, time_budget=budget)
        explored += result.explored
        elapsed += result.elapsed
        proven += 1 if result.proven else 0
    throughput = explored / elapsed if elapsed else 0.0
    print(
        f"[bench] opt n={switch_count}: {elapsed:.3f}s, "
        f"{explored} nodes, {throughput:.0f} nodes/s, "
        f"{proven}/{len(seeds)} proven"
    )
    return {
        "switches": switch_count,
        "instances": len(seeds),
        "engine": OPT_ENGINE,
        "elapsed": round(elapsed, 4),
        "explored": explored,
        "nodes_per_sec": round(throughput, 1),
        "proven": proven,
        "proven_share": round(proven / len(seeds), 3),
    }


def _eager_clone(tracker: IntervalTracker) -> IntervalTracker:
    """Clone with the pre-copy-on-write cost model: every per-key list of
    both indexes is copied entry by entry (what ``clone()`` used to do)."""
    dup = tracker.clone()
    dup._link_index = CowIndex(
        {key: list(tracker._link_index[key]) for key in tracker._link_index},
        set(tracker._link_index.keys()),
    )
    dup._node_index = CowIndex(
        {key: list(tracker._node_index[key]) for key in tracker._node_index},
        set(tracker._node_index.keys()),
    )
    return dup


def bench_clone(
    switch_count: int = 1000, clones: int = 2000, repeats: int = 3
) -> Dict[str, object]:
    """COW vs. eager clone micro-cost on a rich end-of-schedule state."""
    instance = segmented_instance(switch_count, seed=7)
    # The dict tracker by name: the row measures its COW indexes.
    tracker = IntervalTracker(instance)
    for when, nodes in greedy_schedule(instance).schedule.rounds():
        tracker.apply_round(nodes, when)

    def clone_many(clone_fn):
        for _ in range(clones):
            clone_fn(tracker)

    _, cow = _best_of(repeats, clone_many, IntervalTracker.clone, label="clone[cow] run")
    _, eager = _best_of(repeats, clone_many, _eager_clone, label="clone[eager] run")
    speedup = eager / cow if cow else 0.0
    print(
        f"[bench] clone x{clones} (n={switch_count}): cow={cow:.3f}s "
        f"eager={eager:.3f}s speedup={speedup:.1f}x"
    )
    return {
        "switches": switch_count,
        "clones": clones,
        "cow_seconds": round(cow, 4),
        "eager_seconds": round(eager, 4),
        "speedup": round(speedup, 2),
    }


def bench_sweep(
    switch_count: int = 20,
    instances: int = 100,
    workers: int = 4,
    base_seed: int = 42,
    node_budget: int = 5000,
    or_node_budget: int = 1000,
) -> Dict[str, object]:
    """The ``sweep`` scenario, serial vs. ``RunContext(workers=N)``.

    Both sides run the path ``python -m repro.experiments run sweep
    --workers N`` takes, and their ``.records`` must compare equal.  OPT
    and OR are bounded by the deterministic ``node_budget`` /
    ``or_node_budget`` (and given slack wall-clock budgets that never bind
    at this size): record identity must not hinge on how loaded the
    machine happens to be, or the comparison measures solver luck rather
    than harness overhead.  A wall-clock budget that binds also deflates
    the serial/parallel comparison itself -- budget-bound searches simply
    do less work per instance when workers contend for cores.
    """
    overrides = dict(
        switch_counts=(switch_count,),
        instances_per_size=instances,
        base_seed=base_seed,
        opt_budget=60.0,
        or_budget=10.0,
        opt_node_budget=node_budget,
        or_node_budget=or_node_budget,
    )
    serial, serial_s = timed(run_in_memory, "sweep", overrides)
    parallel, parallel_s = timed(
        run_in_memory, "sweep", overrides, ctx=RunContext(workers=workers)
    )
    identical = serial.records == parallel.records
    cpus = available_cpus()
    record: Dict[str, object] = {
        "switches": switch_count,
        "instances": instances,
        "workers": workers,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "identical_records": identical,
    }
    if cpus < 2:
        # On a single-CPU host the workers time-slice one core, so the
        # serial/parallel ratio measures scheduler overhead, not speedup.
        # The identity check above is the part that still means something.
        record["speedup"] = None
        record["speedup_note"] = f"single CPU ({cpus}); ratio not meaningful"
        print(
            f"[bench] sweep {instances}x{switch_count}sw: serial={serial_s:.3f}s "
            f"parallel({workers}w)={parallel_s:.3f}s speedup=n/a (1 cpu) "
            f"identical={identical}"
        )
    else:
        speedup = serial_s / parallel_s if parallel_s else 0.0
        record["speedup"] = round(speedup, 2)
        print(
            f"[bench] sweep {instances}x{switch_count}sw: serial={serial_s:.3f}s "
            f"parallel({workers}w)={parallel_s:.3f}s speedup={speedup:.2f}x "
            f"identical={identical}"
        )
    return record


def bench_service(
    cells: int = 2,
    pods: int = 6,
    pod_size: int = 7,
    requests: int = 40,
    mean_interarrival: float = 2.0,
    base_seed: int = 0,
) -> Dict[str, object]:
    """Sustained wall-clock throughput of the update-service loop.

    Runs the full :mod:`repro.service` cells of the ``service`` scenario
    (admission, merging, greedy planning, verification, resilient timed
    execution on the shared DES plane) and reports *wall-clock*
    updates/sec -- the one number the virtual-time pipeline records can
    never contain -- plus the virtual p50/p95 latency, a conformance
    flag, and a lockstep check (the first cell re-run must be
    byte-identical).
    """
    from repro.experiments.sweep import sweep_seed
    from repro.pipeline.store import canonical_json
    from repro.service.service import ServiceConfig, run_cell

    configs = [
        ServiceConfig(
            pods=pods,
            pod_size=pod_size,
            requests=requests,
            mean_interarrival=mean_interarrival,
            seed=sweep_seed(base_seed, pods, index),
        )
        for index in range(max(1, cells))
    ]

    def run_all():
        return [run_cell(config) for config in configs]

    reports, elapsed = timed(run_all)
    rerun = run_cell(configs[0])
    deterministic = canonical_json(reports[0].to_record()) == canonical_json(
        rerun.to_record()
    )

    total = sum(r.summary["requests"] for r in reports)
    served = sum(
        r.summary["completed"] + r.summary["superseded"] + r.summary["noop"]
        for r in reports
    )
    conformant = all(r.summary["conformant_all"] for r in reports)
    latencies = [
        request["latency"]
        for report in reports
        for request in report.requests
        if request["latency"] is not None
        and request["status"] in ("completed", "superseded", "noop")
    ]
    from repro.service.metrics import percentile

    updates_per_sec = served / elapsed if elapsed > 0 else 0.0
    print(
        f"[bench] service {cells}x{requests}req ({pods} pods): "
        f"{elapsed:.3f}s, {updates_per_sec:.1f} upd/s (wall), "
        f"p50={percentile(latencies, 50)} p95={percentile(latencies, 95)} "
        f"(virtual s), conformant={conformant} deterministic={deterministic}"
    )
    return {
        "cells": cells,
        "pods": pods,
        "pod_size": pod_size,
        "requests": total,
        "served": served,
        "elapsed": round(elapsed, 4),
        "updates_per_sec": round(updates_per_sec, 2),
        "latency_p50": percentile(latencies, 50),
        "latency_p95": percentile(latencies, 95),
        "conformant": conformant,
        "deterministic": deterministic,
    }


def bench_aug(
    switch_count: int = 30,
    instances: int = 40,
    epsilon: float = 1.0,
    base_seed: int = 4,
) -> Dict[str, object]:
    """Strict greedy vs. epsilon-augmented greedy over one seeded batch.

    AUG (DESIGN.md §15) plans on a copy of the network with
    ``capacity * (1 + epsilon)`` transient headroom; the row records what
    that buys on the mixed workload: total planning wall clock for both
    planners and how many instances each completes end to end
    (``feasible`` plans -- the strict greedy stalls into best-effort on
    the hard ones, the augmented greedy trades bounded transient overload
    for completion).
    """
    from repro.experiments.sweep import sweep_seed
    from repro.updates.registry import get_planner

    chronus = get_planner("chronus")
    aug = get_planner("aug")
    batch = [
        mixed_instance(switch_count, sweep_seed(base_seed, switch_count, index))
        for index in range(instances)
    ]

    def plan_all(planner, **options):
        return [planner.plan(instance, **options) for instance in batch]

    strict, strict_s = timed(plan_all, chronus)
    relaxed, relaxed_s = timed(plan_all, aug, epsilon=epsilon)
    strict_done = sum(1 for r in strict if r.feasible)
    relaxed_done = sum(1 for r in relaxed if r.feasible)
    print(
        f"[bench] aug eps={epsilon:g} ({instances}x{switch_count}sw): "
        f"strict={strict_s:.3f}s ({strict_done}/{instances} complete) "
        f"augmented={relaxed_s:.3f}s ({relaxed_done}/{instances} complete)"
    )
    return {
        "switches": switch_count,
        "instances": instances,
        "epsilon": epsilon,
        "strict_seconds": round(strict_s, 4),
        "augmented_seconds": round(relaxed_s, 4),
        "strict_complete": strict_done,
        "augmented_complete": relaxed_done,
    }


def bench_verify(
    pods: int = 32,
    pod_size: int = 12,
    switch_count: int = 30,
    calls: int = 200,
    repeats: int = 5,
) -> Dict[str, object]:
    """Seconds per ``verify_schedule`` call on two window shapes (best-of).

    ``service`` judges the Chronus plan that moves the first tenant of a
    ``pods`` x ``pod_size`` service network onto its detour while its
    partner already sits on the shared crossover link (so the capacity
    check sees real background): a handful of update steps inside a
    window of ``(|V| + 1) * max_delay`` emissions.  ``mixed`` judges the
    Chronus plan of one ``mixed_instance(switch_count)``, where the window
    is a few dozen emissions and the transient is most of it.
    """
    from repro.service.workload import build_workload
    from repro.validate import verify_schedule

    workload = build_workload(pods, pod_size, requests=1, mean_interarrival=1.0, seed=0)
    tenant, partner = workload.pods[0], workload.pods[1]
    intent = instance_from_paths(
        workload.network, list(tenant.path_a), list(tenant.path_b), demand=tenant.demand
    )
    shared = [
        link
        for link in zip(partner.path_b, partner.path_b[1:])
        if link in tenant.footprint
    ]
    background = {link: ((None, None, partner.demand),) for link in shared}
    mixed = mixed_instance(switch_count, 7919 + switch_count)

    out: Dict[str, object] = {}
    for name, instance, extras, shape in (
        ("service", intent, background, {"pods": pods, "pod_size": pod_size}),
        ("mixed", mixed, None, {"switches": switch_count}),
    ):
        schedule = greedy_schedule(instance, background=extras).schedule

        def verify_many():
            for _ in range(calls):
                verdict = verify_schedule(instance, schedule, background=extras)
            return verdict

        verdict, best = _best_of(repeats, verify_many, label=f"verify[{name}] run")
        per_call = best / calls
        print(
            f"[bench] verify {name}: {per_call * 1e3:.3f} ms/verify "
            f"(window {verdict.check_end - verdict.check_start + 1} steps, ok={verdict.ok})"
        )
        out[name] = dict(
            shape,
            calls=calls,
            seconds_per_verify=round(per_call, 7),
            window_steps=verdict.check_end - verdict.check_start + 1,
            ok=verdict.ok,
        )
    return out


def collect(quick: bool = False, workers: int = 4) -> Dict[str, object]:
    """Run every benchmark; return one BENCH_sweep.json record."""
    if quick:
        record = {
            "quick": True,
            "cpus": available_cpus(),
            "greedy": bench_greedy(sizes=(200, 400), repeats=2),
            "greedy_dense": bench_greedy_dense(plans=50, repeats=2),
            "tracker_grid": bench_tracker_grid(
                random_sizes=(16,),
                segmented_sizes=(50, 400),
                repeats=1,
                long_size=2000,
                long_plans=2,
            ),
            "opt": bench_opt(switch_count=20, seeds=tuple(range(4)), budget=1.0),
            "clone": bench_clone(switch_count=300, clones=500, repeats=2),
            "sweep": bench_sweep(
                switch_count=14,
                instances=24,
                workers=workers,
                node_budget=500,
                or_node_budget=300,
            ),
            "memory": {"greedy": bench_greedy_memory(sizes=(400,))},
            "service": bench_service(
                cells=1, pods=4, pod_size=6, requests=16
            ),
            "aug": bench_aug(switch_count=14, instances=20),
            "verify": bench_verify(
                pods=4, pod_size=6, switch_count=14, calls=50, repeats=2
            ),
        }
    else:
        record = {
            "quick": False,
            "cpus": available_cpus(),
            "greedy": bench_greedy(),
            "greedy_dense": bench_greedy_dense(),
            "tracker_grid": bench_tracker_grid(),
            "opt": bench_opt(),
            "clone": bench_clone(),
            "sweep": bench_sweep(workers=workers),
            "memory": {"greedy": bench_greedy_memory()},
            "service": bench_service(),
            "aug": bench_aug(),
            "verify": bench_verify(),
        }
    return record


def load_history(path: Path = BENCH_FILE) -> List[Dict]:
    """All prior records from the JSON trajectory file (empty on any miss)."""
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return []
    return history if isinstance(history, list) else [history]


def append_record(record: Dict[str, object], path: Path = BENCH_FILE) -> List[Dict]:
    """Append ``record`` to the JSON trajectory file (a list of records)."""
    history = load_history(path)
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return history
