#!/usr/bin/env python3
"""One-command phase profiles: the greedy scheduler and one service cell.

``greedy`` (the default, ``make profile``) runs the Chronus greedy engine
on a paper-scale segmented instance with the :mod:`repro.perf` registry
enabled and prints the hierarchical wall-clock breakdown (tracker build,
dependency analysis and its commits, round selection with each probe split
into ``split`` / ``deflect`` / ``check``, the final check) under a root span
that covers the whole run, together with the tracker's counters and what a
probe looked at per switch being updated.

``service`` runs one seeded cell of the update service shaped like the repo
benchmark's ``service-burst`` workload and prints the DES event count, the
cost per event and the wall clock split by layer (plan / verify / dispatch
/ DES / admission / build), so an execute-path change is sized from here
rather than from an ad-hoc wrapper.

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
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core.greedy import greedy_schedule  # noqa: E402
from repro.core.instance import segmented_instance  # noqa: E402
from repro.perf import measure_peak_rss, perf  # noqa: E402
from repro.pipeline.cli import emit_json, script_parser  # noqa: E402


def _stage(size: int, seed: int) -> None:
    """The profiled stage, self-contained for the memory-measurement fork."""
    greedy_schedule(segmented_instance(size, seed=seed))


#: bench/workloads.py::ServiceBurst.CONFIG -- the cell the service mode times.
BURST_CELL = dict(
    pods=32, pod_size=12, requests=100, mean_interarrival=0.25, max_queue=1024, planners=4
)
SERVICE_LAYERS = ("plan", "verify", "dispatch", "des", "admission", "build")


def _service_pass(seed: int) -> dict:
    """Run one burst-shaped cell with a stopwatch around every layer boundary.

    The boundaries are the names ``bench/tracing.py`` rebinds; none of them
    runs inside another, so each total is that layer's own time.
    """
    import repro.service.service as service
    from repro.service.admission import AdmissionController
    from repro.simulator.engine import Simulator

    totals = dict.fromkeys(SERVICE_LAYERS, 0.0)
    events = 0

    def stopwatch(layer, function):
        def timed(*args, **kwargs):
            nonlocal events
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                totals[layer] += time.perf_counter() - started
            if layer == "des":  # Simulator.run returns the events it processed
                events += result
            return result

        return timed

    config = service.ServiceConfig(seed=seed, **BURST_CELL)
    planner = service.get_planner(config.scheme)
    bindings = [
        (planner, "plan", "plan"),
        (planner, "verify", "verify"),
        (service, "perform_resilient_update", "dispatch"),
        (Simulator, "run", "des"),
        (AdmissionController, "offer", "admission"),
        (AdmissionController, "release", "admission"),
        (service, "build_workload", "build"),
        (service.UpdateService, "__init__", "build"),
    ]
    with ExitStack() as patches:
        for owner, name, layer in bindings:
            patches.enter_context(
                mock.patch.object(owner, name, stopwatch(layer, getattr(owner, name)))
            )
        started = time.perf_counter()
        report = service.run_cell(config)
        wall = time.perf_counter() - started
    return {"wall_s": wall, "events": events, "layers_s": totals, "summary": report.summary}


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
    perf.enable()
    started = time.perf_counter()
    result = greedy_schedule(instance)
    elapsed = time.perf_counter() - started
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
        snapshot = perf.snapshot()
        if memory is not None:
            snapshot["memory"] = memory
        emit_json(snapshot)
    else:
        print(perf.report())
        probes = perf.calls("greedy.select.tracker.probe")
        deflections = perf.counter("tracker.array.deflections")
        if probes and deflections:  # the array tracker ran
            print(
                f"  per probe: {perf.counter('tracker.array.batched_links') / probes:.1f} "
                f"links batched; per deflection: "
                f"{perf.counter('tracker.array.deflect_runs') / deflections:.1f} runs walked "
                f"({len(instance.switches_to_update)} switches to update on a "
                f"{len(instance.old_path)}-switch path)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
