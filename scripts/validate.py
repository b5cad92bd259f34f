#!/usr/bin/env python3
"""Plan-conformance gate entry point (``make validate``).

Sweeps N seeded instances through every registered scheme and fails -- with a
readable diff of each mismatch -- on any disagreement between the planner,
the independent verifier (:mod:`repro.validate.verifier`) and the fluid
simulator (:func:`repro.validate.differential_replay`).

Usage::

    python scripts/validate.py                 # 50 instances x every scheme
    python scripts/validate.py --quick         # 8 instances (make test path)
    python scripts/validate.py -n 200 -s 12    # bigger sweep, 12 switches
    python scripts/validate.py --no-replay     # analytic engines only

Exit status: 0 when every engine pair agrees on every instance, 1
otherwise.  Seeds are deterministic (the figures' ``sweep_seed``
contract), so a failure reproduces anywhere.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.pipeline.cli import (  # noqa: E402
    add_quick_flag,
    add_quiet_flag,
    finish_progress,
    progress_printer,
    script_parser,
)
from repro.updates.registry import available_schemes  # noqa: E402
from repro.validate.gate import run_gate  # noqa: E402


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument(
        "-n",
        "--instances",
        type=int,
        default=50,
        help="seeded instances to sweep (default 50)",
    )
    parser.add_argument(
        "-s",
        "--switches",
        type=int,
        default=8,
        help="network size of every instance (default 8)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0, help="base of the sweep_seed contract"
    )
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=list(available_schemes()),
        choices=list(available_schemes()),
        help="schemes to gate (default: every registered scheme)",
    )
    add_quick_flag(
        parser, "8 instances -- the default `make test` smoke configuration"
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the fluid differential replay (planner<->verifier only)",
    )
    add_quiet_flag(parser)
    args = parser.parse_args(argv)

    instances = 8 if args.quick else args.instances

    started = time.monotonic()
    report = run_gate(
        instance_count=instances,
        switch_count=args.switches,
        base_seed=args.base_seed,
        protocols=tuple(args.protocols),
        replay=not args.no_replay,
        progress=progress_printer("validated instance", quiet=args.quiet),
    )
    finish_progress(quiet=args.quiet)
    elapsed = time.monotonic() - started
    print(report.describe())
    print(f"({elapsed:.1f}s)")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
