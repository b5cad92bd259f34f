#!/usr/bin/env python3
"""Faults ablation entry point (``make faults``).

Sweeps the fault-severity grid of
:mod:`repro.experiments.faults_ablation`: every scheme (Chronus timed,
order-replacement rounds, two-phase) runs seeded reroute instances under a
deterministic fault plan -- message loss/duplication, apply failures,
crash-stop switches, stragglers, optional clock drift -- through the
resilient executor, and the consistency of every run is judged by the
independent ``repro.validate`` oracle.

Usage::

    python scripts/faults.py                   # default grid, 5 instances/point
    python scripts/faults.py --quick           # 2 instances/point smoke run
    python scripts/faults.py -n 20 -s 12       # denser sweep, 12 switches
    python scripts/faults.py --drift 0.4       # add clock drift beyond sync

Exit status: 0 when the oracle cross-check holds on every run (a clean
verdict never coexists with a dirty fluid plane), 1 otherwise.  Seeds
follow the figures' ``sweep_seed`` contract, so any run reproduces
bit-for-bit anywhere.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.experiments.faults_ablation import DEFAULT_SEVERITIES, SCHEMES  # noqa: E402
from repro.pipeline import RunContext, run_in_memory  # noqa: E402
from repro.pipeline.cli import (  # noqa: E402
    add_quick_flag,
    add_quiet_flag,
    finish_progress,
    progress_printer,
    script_parser,
)


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument(
        "-n",
        "--instances",
        type=int,
        default=5,
        help="seeded instances per (scheme, severity) point (default 5)",
    )
    parser.add_argument(
        "-s",
        "--switches",
        type=int,
        default=8,
        help="network size of every instance (default 8)",
    )
    parser.add_argument(
        "--severities",
        nargs="+",
        type=float,
        default=list(DEFAULT_SEVERITIES),
        help="fault-severity grid (default: 0 0.25 0.5 1)",
    )
    parser.add_argument(
        "--schemes",
        nargs="+",
        default=list(SCHEMES),
        choices=list(SCHEMES),
        help="schemes to ablate (default: all three)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=7, help="base of the sweep_seed contract"
    )
    parser.add_argument(
        "--drift",
        type=float,
        default=0.0,
        help="clock-drift bound in seconds (0 keeps the oracle exact)",
    )
    parser.add_argument(
        "--deadline",
        type=int,
        default=60,
        help="abort deadline in steps after the update starts (default 60)",
    )
    add_quick_flag(parser, "2 instances/point -- the smoke configuration")
    add_quiet_flag(parser)
    args = parser.parse_args(argv)

    instances = 2 if args.quick else args.instances
    started = time.monotonic()
    result = run_in_memory(
        "faults",
        {
            "severities": tuple(args.severities),
            "instances_per_point": instances,
            "switch_count": args.switches,
            "base_seed": args.base_seed,
            "schemes": tuple(args.schemes),
            "deadline_steps": args.deadline,
            "drift_bound": args.drift,
        },
        ctx=RunContext(progress=progress_printer("fault run", quiet=args.quiet)),
    )
    finish_progress(quiet=args.quiet)
    elapsed = time.monotonic() - started
    print(result.render())
    print(f"({elapsed:.1f}s)")
    return 0 if result.oracle_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
