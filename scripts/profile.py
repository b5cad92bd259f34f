#!/usr/bin/env python3
"""One-command phase profiles: the greedy scheduler and one service cell.

``greedy`` (the default, ``make profile``) runs the Chronus greedy engine
on a paper-scale segmented instance inside a sink-less
:class:`repro.trace.TraceSession` and prints the aggregate view of its tape
(the view ``python -m repro.trace profile`` prints of a stored trace): the
hierarchical wall-clock breakdown (tracker build,
dependency analysis and its commits, round selection with each probe split
into ``split`` / ``deflect`` / ``check``, the final check) under a root span
that covers the whole run, together with the tracker's counters and what a
probe looked at per switch being updated.

``service`` runs one seeded cell of the update service shaped like the repo
benchmark's ``service-burst`` workload the same way and reads the DES event
count, the cost per event and the wall clock split by layer (plan / verify
/ dispatch / DES / admission / build) off the tape, so an execute-path
change is sized from here rather than from an ad-hoc wrapper.

Usage::

    python scripts/profile.py                  # 6000 switches (Fig. 10 max)
    python scripts/profile.py --size 4000      # the bench-gate size
    python scripts/profile.py --json           # machine-readable snapshot
    python scripts/profile.py --memory         # peak RSS of the stage too
    python scripts/profile.py service          # one burst-shaped cell, seed 7
    python scripts/profile.py service --seed 301 --repeat 9

``--memory`` reproduces BENCH_sweep.json's memory column locally: the
stage (instance build + schedule) re-runs in a forked child and its peak
RSS is reported next to the wall-clock breakdown.
"""

from __future__ import annotations

import sys
import time
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


def _stage(size: int, seed: int) -> None:
    """The profiled stage, self-contained for the memory-measurement fork."""
    greedy_schedule(segmented_instance(size, seed=seed))


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


def _service_pass(seed: int) -> dict:
    """Run one burst-shaped cell in a session and read each layer off its tape.

    None of the layers' timers runs inside another, so each total is that
    layer's own time.
    """
    from repro.service.service import ServiceConfig, run_cell

    config = ServiceConfig(seed=seed, **BURST_CELL)
    with TraceSession(scenario="profile", run_id=f"service-{seed}") as session:
        started = time.perf_counter()
        report = run_cell(config)
        wall = time.perf_counter() - started
    totals = {
        layer: sum(
            record.duration_ms
            for record in session.tape
            if record.kind == "span" and record.name in names
        )
        / 1000.0
        for layer, names in SERVICE_LAYERS.items()
    }
    return {
        "wall_s": wall,
        "events": aggregate(session.tape)["counters"]["simulator.engine.events"],
        "layers_s": totals,
        "summary": report.summary,
    }


def _profile_service(seed: int, repeat: int, as_json: bool) -> int:
    best = min((_service_pass(seed) for _ in range(repeat)), key=lambda p: p["wall_s"])
    if as_json:
        emit_json(best)
        return 0
    wall, events, layers = best["wall_s"], best["events"], best["layers_s"]
    summary = best["summary"]
    print(
        f"service cell (burst shape, seed {seed}, best of {repeat}): {wall:.4f}s "
        f"completed={summary['completed']} superseded={summary['superseded']} "
        f"batches={summary['batches']}"
    )
    print(
        f"  DES events {events}   {1e6 * layers['des'] / max(events, 1):.2f} us/event"
    )
    for layer in SERVICE_LAYERS:
        print(f"  {layer:<10} {layers[layer]:.4f}s  {layers[layer] / wall:6.1%}")
    rest = wall - sum(layers.values())
    print(f"  {'loop+rest':<10} {rest:.4f}s  {rest / wall:6.1%}")
    return 0


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument(
        "mode",
        nargs="?",
        choices=("greedy", "service"),
        default="greedy",
        help="what to profile (default greedy)",
    )
    parser.add_argument(
        "--size", type=int, default=6000, help="switches to update (default 6000)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="instance seed (greedy default: the size, matching the bench "
        "harness; service default: 7)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="service mode: passes to run; the fastest is reported (default 5)",
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
    if args.mode == "service":
        return _profile_service(
            7 if args.seed is None else args.seed, max(1, args.repeat), args.json
        )

    seed = args.size if args.seed is None else args.seed
    instance = segmented_instance(args.size, seed=seed)
    with TraceSession(scenario="profile", run_id=f"greedy-{args.size}") as session:
        started = time.perf_counter()
        result = greedy_schedule(instance)
        elapsed = time.perf_counter() - started
    profile = aggregate(session.tape)
    print(
        f"greedy[{args.size}]: {elapsed:.3f}s "
        f"feasible={result.feasible} makespan={result.makespan}"
    )
    memory = None
    if args.memory:
        memory = measure_peak_rss(_stage, args.size, seed)
        print(
            f"greedy[{args.size}] memory: peak_rss={memory['peak_rss_mb']}MB "
            f"(baseline {memory['baseline_rss_mb']}MB, "
            f"stage delta {memory['delta_mb']}MB)"
        )
    if args.json:
        if memory is not None:
            profile["memory"] = memory
        emit_json(profile)
    else:
        print(render_report(profile))
        counters = profile["counters"]
        probes = profile["spans"].get("greedy.select.tracker.probe", {}).get("calls")
        deflections = counters.get("tracker.array.deflections")
        if probes and deflections:  # the array tracker ran
            print(
                f"  per probe: {counters['tracker.array.batched_links'] / probes:.1f} "
                f"links batched; per deflection: "
                f"{counters['tracker.array.deflect_runs'] / deflections:.1f} runs walked "
                f"({len(instance.switches_to_update)} switches to update on a "
                f"{len(instance.old_path)}-switch path)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
