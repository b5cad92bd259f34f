#!/usr/bin/env python3
"""One-command phase profile of the greedy scheduler (``make profile``).

Runs the Chronus greedy engine on a paper-scale segmented instance with
the :mod:`repro.perf` registry enabled and prints the hierarchical
wall-clock breakdown (dependency analysis vs. round selection vs. tracker
probes) together with the tracker's hit/miss counters.

Usage::

    python scripts/profile.py                  # 6000 switches (Fig. 10 max)
    python scripts/profile.py --size 4000      # the bench-gate size
    python scripts/profile.py --json           # machine-readable snapshot
    python scripts/profile.py --memory         # peak RSS of the stage too

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
from repro.perf import measure_peak_rss, perf  # noqa: E402
from repro.pipeline.cli import emit_json, script_parser  # noqa: E402


def _stage(size: int, seed: int) -> None:
    """The profiled stage, self-contained for the memory-measurement fork."""
    greedy_schedule(segmented_instance(size, seed=seed))


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument(
        "--size", type=int, default=6000, help="switches to update (default 6000)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="instance seed (default: the size, matching the bench harness)",
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
