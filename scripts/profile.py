#!/usr/bin/env python3
"""Run one bench-shaped workload with the recorder on and print its profile.

Prints a header and ``render_report(profile_of(tape))`` (what ``python -m
repro.trace profile`` prints of a stored trace), or with ``--json`` both as
one JSON object.  Modes: ``greedy`` (default), a warm plan of
``segmented_instance(--size, --segments)``; ``dense``, ``--plans`` plans of
``plan-dense``'s shape; ``search`` / ``item``, ``--repeat`` stored ``sweep``
items, OPT alone (``--nodes``) or ``sweep-paper``-shaped; ``service``, best of
``--repeat`` runs of ``--cells`` ``service-burst`` cells with gc pauses (inside
each layer's time); ``cold``, ``--repeat`` fresh interpreters.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.perf import cold_path, gc_pauses, render_cold, render_gc  # noqa: E402
from repro.pipeline import ArtifactStore, RunContext, run_in_memory, run_to_store  # noqa: E402
from repro.pipeline.cli import emit_json, script_parser  # noqa: E402
from repro.trace import TraceSession, profile_of, render_report  # noqa: E402

#: bench/workloads.py: SweepPaper's item and ServiceBurst's cell.
PAPER_ITEM = dict(schemes=("chronus", "or", "opt", "tp", "aug"), opt_budget=600.0, or_budget=600.0,
                  opt_node_budget=60, or_node_budget=60, aug_epsilon=1.0, verify=True)
BURST_CELL = dict(pods=32, pod_size=12, requests=100, mean_interarrival=0.25, max_queue=1024, planners=4)


def traced(label, work):
    with TraceSession(scenario="profile", run_id=label) as session:
        started = time.perf_counter()
        result = work()
        wall = time.perf_counter() - started
    return result, wall, profile_of(session.tape)


def greedy(args, seed):
    from repro.core.greedy import greedy_schedule
    from repro.core.instance import segmented_instance

    size = args.size or 6000
    instance = segmented_instance(size, seed=size if args.seed is None else seed, segments=args.segments)
    started = time.perf_counter()
    greedy_schedule(instance)  # encodes the instance
    first = time.perf_counter() - started
    result, wall, profile = traced(f"greedy-{size}", lambda: greedy_schedule(instance))
    return (f"greedy[{size}] first plan {first:.3f}s, warm plan {wall:.3f}s feasible={result.feasible} "
            f"makespan={result.makespan} ({len(instance.switches_to_update)} switches to update on a "
            f"{len(instance.old_path)}-switch path)", {"first_plan_s": first, "warm_plan_s": wall}, profile)


def dense(args, seed):
    from repro import get_planner, random_instance
    from repro.experiments.sweep import sweep_seed

    instances = [random_instance(16, seed=sweep_seed(seed, 16, i), capacity=2.0) for i in range(args.plans)]
    _, wall, profile = traced(f"dense-{seed}", lambda: [get_planner("chronus").plan(i) for i in instances])
    return (f"dense x{args.plans} plans (random[16], capacity 2.0, seed {seed}): {wall:.4f}s  "
            f"{args.plans / wall:.1f} plans/s", {"seed": seed, "plans": args.plans, "wall_s": wall}, profile)


def sweep(args, seed, label, overrides):
    ctx, size = RunContext(tape=[]), args.size or 9
    overrides = dict(overrides, switch_counts=(size,), instances_per_size=args.repeat, base_seed=seed)
    with tempfile.TemporaryDirectory(prefix="profile-") as root:
        run_to_store("sweep", overrides, ctx, ArtifactStore(root=root))
    return f"{label}[{size}] x{args.repeat} (seed {seed})", {}, profile_of(ctx.tape)


def service(args, seed):
    passes = []
    for _ in range(args.repeat):
        with gc_pauses() as pauses:
            ctx = RunContext(tape=[])
            cells = run_in_memory("service", dict(BURST_CELL, cells=args.cells, base_seed=seed), ctx=ctx)
        passes.append((profile_of(ctx.tape), pauses, [record["summary"] for record in cells.records]))
    profile, pauses, summaries = min(passes, key=lambda found: found[0]["service"]["wall_s"])
    done = " ".join(f"{k}={sum(s[k] for s in summaries)}" for k in ("completed", "superseded", "batches"))
    return (f"service x{args.cells} cell(s) (burst shape, seed {seed}, best of {args.repeat}): {done}\n"
            f"  {render_gc(pauses)}", {"gc": pauses, "summaries": summaries}, profile)


def cold(args, seed):
    size = args.size or 10_000
    shapes = {"random[16]": cold_path("random_instance", 16, seed, ", capacity=2.0", args.repeat),
              f"segmented[{size}]": cold_path("segmented_instance", size, seed, "", args.repeat)}
    return (f"cold path (fresh interpreters, seed {seed}, median of {args.repeat}, ms):\n"
            + render_cold(shapes), {"seed": seed, "repeat": args.repeat, "shapes": shapes}, None)


MODES = dict(greedy=greedy, dense=dense, service=service, cold=cold,
             item=lambda args, seed: sweep(args, seed, "sweep item", PAPER_ITEM),
             search=lambda args, seed: sweep(args, seed, "opt", dict(
                 schemes=("opt",), opt_budget=600.0, opt_node_budget=args.nodes)))


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument("mode", nargs="?", default="greedy", choices=tuple(MODES))
    for flag, default in (("--size", None), ("--seed", None), ("--segments", 4), ("--repeat", 5),
                          ("--nodes", 60), ("--plans", 200), ("--cells", 1)):
        parser.add_argument(flag, type=int, default=default, help=f"(default {default or 'per mode'})")
    parser.add_argument("--json", action="store_true", help="print the profile as JSON")
    args = parser.parse_args(argv)
    args.repeat, args.plans, args.cells = max(1, args.repeat), max(1, args.plans), max(1, args.cells)
    header, extras, profile = MODES[args.mode](args, 7 if args.seed is None else args.seed)
    if args.json:
        emit_json({**extras, **(profile or {})})
    else:
        print(header if profile is None else f"{header}\n{render_report(profile)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
