"""The trace query CLI: ``python -m repro.trace``.

Subcommands over a JSONL trace file::

    python -m repro.trace list                       # traces in the file
    python -m repro.trace show [TRACE_ID]            # tree view
    python -m repro.trace spans --name greedy --json # filtered records
    python -m repro.trace spans --switch s3          # per-switch evidence
    python -m repro.trace spans --status aborted     # requests that ended so
    python -m repro.trace slowest -n 15              # slowest-span report
    python -m repro.trace profile --min-ms 1         # timers, counters, derived views

Without ``--path`` the newest ``trace.jsonl`` under the runs root
(``$REPRO_RUNS_DIR`` or ``./runs``) is used, i.e. the trace of the most
recent ``--trace jsonl`` run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.trace.query import (
    STATUS_CHOICES,
    TraceQueryError,
    default_trace_path,
    filter_records,
    profile_of,
    read_trace,
    render_report,
    render_slowest,
    render_traces,
    render_tree,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--path",
        default=None,
        metavar="FILE",
        help="JSONL trace file (default: newest under the runs root)",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="runs root searched when --path is omitted "
        "(default: $REPRO_RUNS_DIR or ./runs)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Query the trace a scenario run emitted.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="one line per trace in the file")
    _add_common(listing)

    show = sub.add_parser("show", help="tree view of one trace")
    show.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id (prefix ok; default: every trace in the file)",
    )
    _add_common(show)

    spans = sub.add_parser("spans", help="filtered flat listing")
    spans.add_argument("--scenario", default=None, help="exact scenario name")
    spans.add_argument("--name", default=None, help="substring of the span/event name")
    spans.add_argument(
        "--switch", default=None, help="switch attribute match (per-switch evidence)"
    )
    spans.add_argument(
        "--kind", default=None, choices=("span", "event"), help="record kind"
    )
    spans.add_argument(
        "--status",
        default=None,
        choices=STATUS_CHOICES,
        help="service requests that ended this way (or the late applies)",
    )
    spans.add_argument("--trace-id", default=None, help="trace id (prefix ok)")
    spans.add_argument(
        "--json", action="store_true", help="emit records as JSON lines"
    )
    _add_common(spans)

    slowest = sub.add_parser("slowest", help="slowest-span report")
    slowest.add_argument("-n", type=int, default=10, help="rows (default 10)")
    slowest.add_argument("--scenario", default=None, help="exact scenario name")
    _add_common(slowest)

    profile = sub.add_parser(
        "profile", help="aggregate self-time tree, counters and derived views"
    )
    profile.add_argument(
        "--min-ms",
        type=float,
        default=0.0,
        metavar="N",
        help="hide tree lines below N milliseconds (default: show all)",
    )
    _add_common(profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        path = args.path or default_trace_path(args.runs_dir)
        records = read_trace(path)
    except TraceQueryError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.command == "list":
        print(render_traces(records))
        return 0

    if args.command == "show":
        if args.trace_id:
            records = filter_records(records, trace_id=args.trace_id)
            if not records:
                print(f"no records of trace {args.trace_id!r} in {path}", file=sys.stderr)
                return 2
        print(render_tree(records))
        return 0

    if args.command == "spans":
        records = filter_records(
            records,
            trace_id=args.trace_id,
            scenario=args.scenario,
            name=args.name,
            switch=args.switch,
            kind=args.kind,
            status=args.status,
        )
        if args.json:
            from repro.trace.record import record_to_line

            for record in records:
                print(record_to_line(record))
        else:
            print(render_tree(records))
        return 0

    if args.command == "profile":
        print(render_report(profile_of(records), min_seconds=args.min_ms / 1000.0))
        return 0

    # slowest
    if args.scenario:
        records = filter_records(records, scenario=args.scenario)
    print(render_slowest(records, limit=args.n))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Piped into `head` etc.; suppress the useless traceback.
        sys.stderr.close()
        raise SystemExit(0)
