"""The unified experiments CLI: ``python -m repro.experiments``.

Subcommands over the scenario registry and the artifact store::

    python -m repro.experiments list
    python -m repro.experiments run fig7 --workers 4 --set instances_per_size=50
    python -m repro.experiments resume fig7            # pick up a killed run
    python -m repro.experiments report fig7            # re-render, no compute

``run`` streams records to ``runs/<scenario>/<run-id>/`` (override the
root with ``--runs-dir`` or ``$REPRO_RUNS_DIR``), checkpointed per
record; a killed run resumes byte-identically.  ``report`` aggregates a
stored run without recomputing anything.

Invoked with bare scenario names (or none), it behaves as the legacy
battery runner: every named experiment executes in memory and prints its
figure/table.  Names must match a registered scenario **exactly** --
``fig1`` no longer silently selects Figs. 10 and 11.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.pipeline.cli import (
    finish_progress,
    parse_override,
    progress_printer,
)
from repro.pipeline.context import RunContext
from repro.pipeline.runner import (
    RunInterrupted,
    report_from_store,
    run_in_memory,
    run_to_store,
)
from repro.pipeline.scenario import (
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
)
from repro.pipeline.store import ArtifactStore, StoreError
from repro.trace.query import aggregate, render_report
from repro.updates.registry import UnknownSchemeError, planners_for

#: The battery ``python -m repro.experiments`` (no arguments) runs, in the
#: order the paper presents them.
LEGACY_DEFAULT = (
    "walkthrough",
    "table2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
)

SUBCOMMANDS = ("list", "run", "resume", "report")

#: Exit code of a ``--stop-after`` interruption (distinct from argparse's 2).
EXIT_INTERRUPTED = 3


def _add_context_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-check every schedule with the independent verifier",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record the run in memory and print its aggregate timers and counters",
    )
    parser.add_argument(
        "--fault-severity",
        type=float,
        default=None,
        metavar="S",
        help="run over a faulty control plane at severity S (scenarios "
        "executing on the discrete-event plane honour it)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="SINK",
        help="record an execution trace: console, jsonl[:PATH] or "
        "sqlite[:PATH]; file sinks default into the run directory "
        "(inspect with python -m repro.trace)",
    )
    parser.add_argument(
        "--serial-threshold",
        type=float,
        default=None,
        metavar="S",
        help="min projected pool work in seconds (0 always uses the pool; "
        "default: the runner's heuristic)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="artifact store root (default: $REPRO_RUNS_DIR or ./runs)",
    )
    parser.add_argument(
        "--run-id", default=None, help="run id (default: new for run, latest "
        "for resume/report)"
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help=f"stop after N new records, simulating a kill (exit "
        f"{EXIT_INTERRUPTED}); the run stays resumable",
    )
    parser.add_argument(
        "--no-report",
        action="store_true",
        help="write records only; skip rendering the figure/table",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run, resume and report the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list registered scenarios")

    run = sub.add_parser("run", help="run a scenario into the artifact store")
    run.add_argument("scenario")
    run.add_argument(
        "--paper",
        action="store_true",
        help="use the paper's original scale (the scenario's paper_params)",
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        type=parse_override,
        default=[],
        metavar="KEY=VALUE",
        help="override one parameter (JSON value, bare string fallback); "
        "repeatable",
    )
    _add_store_flags(run)
    _add_context_flags(run)
    _add_run_flags(run)

    resume = sub.add_parser(
        "resume", help="resume an interrupted run (params come from its manifest)"
    )
    resume.add_argument("scenario")
    _add_store_flags(resume)
    _add_context_flags(resume)
    _add_run_flags(resume)

    report = sub.add_parser(
        "report", help="re-render a stored run; aggregation only, no compute"
    )
    report.add_argument("scenario")
    _add_store_flags(report)

    return parser


def _context(args: argparse.Namespace) -> RunContext:
    ctx = RunContext(
        workers=args.workers,
        verify=args.verify,
        profile=args.profile,
        fault_severity=args.fault_severity,
        trace=args.trace,
        serial_threshold_seconds=args.serial_threshold,
    )
    ctx.progress = progress_printer("record", quiet=args.quiet)
    return ctx


def _store(args: argparse.Namespace) -> ArtifactStore:
    return ArtifactStore(root=args.runs_dir)


def _print_profile(ctx: RunContext) -> None:
    if ctx.profile:
        print(render_report(aggregate(ctx.tape), min_seconds=0.001))


def _cmd_list() -> int:
    store = ArtifactStore()
    rows = []
    for scenario in all_scenarios():
        runs = store.run_ids(scenario.name)
        rows.append(
            (scenario.name, scenario.paper, len(runs), scenario.title)
        )
    name_w = max(len(r[0]) for r in rows)
    paper_w = max(len(r[1]) for r in rows)
    for name, paper, runs, title in rows:
        stored = f"{runs} run(s)" if runs else "-"
        print(f"{name:<{name_w}}  {paper:<{paper_w}}  {stored:>9}  {title}")
    return 0


def _validate_schemes(args: argparse.Namespace) -> None:
    """Reject unregistered scheme names before any compute starts.

    ``--set schemes=chrnous`` used to die minutes later with a
    ``KeyError`` inside a worker; resolving the materialised params
    against the planner registry up front turns the typo into an exit-2
    parse error listing the registered names.  Comma-separated shorthand
    (``--set schemes=chronus,aug``) is normalised to a list here so the
    scenario sees the same shape a JSON override would produce.
    """
    scenario = get_scenario(args.scenario)
    overrides = dict(args.overrides)
    value = overrides.get("schemes")
    if isinstance(value, str):
        overrides["schemes"] = [name for name in value.split(",") if name]
        args.overrides = list(overrides.items())
    params = scenario.params_with(overrides=overrides, paper=args.paper)
    schemes = params.get("schemes")
    if schemes is not None:
        planners_for(tuple(schemes))


def _cmd_run(args: argparse.Namespace, resume: bool) -> int:
    ctx = _context(args)
    if not resume:
        try:
            _validate_schemes(args)
        except ValueError as exc:
            # Unknown --set key, unregistered scheme or missing --paper
            # preset: a usage error naming the valid choices, not a crash.
            print(str(exc), file=sys.stderr)
            return 2
    try:
        stored = run_to_store(
            args.scenario,
            overrides=dict(args.overrides) if not resume else None,
            ctx=ctx,
            store=_store(args),
            run_id=args.run_id,
            resume=resume,
            paper=args.paper if not resume else False,
            stop_after=args.stop_after,
        )
    except RunInterrupted as interrupted:
        finish_progress(quiet=args.quiet)
        handle = interrupted.handle
        where = handle.directory if handle is not None else "the store"
        print(f"interrupted: {interrupted}")
        print(f"resume with: python -m repro.experiments resume {args.scenario}")
        print(f"records so far: {where}")
        return EXIT_INTERRUPTED
    finish_progress(quiet=args.quiet)
    summary = stored.summary
    if not args.quiet:
        skipped = f", {summary.skipped} resumed" if summary.skipped else ""
        early = " (enough() satisfied early)" if summary.satisfied_early else ""
        print(
            f"{stored.scenario.name}: {len(stored.records)} record(s)"
            f"{skipped}{early} -> {stored.handle.directory}"
        )
        trace_meta = stored.handle.manifest.get("trace")
        if isinstance(trace_meta, dict):
            where = trace_meta.get("path") or trace_meta.get("sink")
            print(f"trace: {where} (inspect: python -m repro.trace show)")
    if not args.no_report:
        print(stored.aggregate().render())
    _print_profile(ctx)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = report_from_store(
        args.scenario, store=_store(args), run_id=args.run_id
    )
    print(result.render())
    return 0


def _legacy(names: Sequence[str]) -> int:
    """The historical battery runner: in-memory runs, rendered output."""
    wanted = list(names) or list(LEGACY_DEFAULT)
    # Resolve every name before running anything: a typo at position N
    # should not cost N-1 experiments of compute first.
    scenarios = [get_scenario(name) for name in wanted]
    for scenario in scenarios:
        banner = f"{scenario.paper} ({scenario.name})"
        print("=" * 72)
        print(banner)
        print("=" * 72)
        started = time.monotonic()
        result = run_in_memory(scenario.name, ctx=RunContext())
        print(result.render())
        print(f"[{banner} finished in {time.monotonic() - started:.1f} s]\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in SUBCOMMANDS:
            args = build_parser().parse_args(argv)
            if args.command == "list":
                return _cmd_list()
            if args.command == "run":
                return _cmd_run(args, resume=False)
            if args.command == "resume":
                args.overrides = []
                args.paper = False
                return _cmd_run(args, resume=True)
            return _cmd_report(args)
        if argv and argv[0] in ("-h", "--help"):
            build_parser().parse_args(argv)
            return 0
        return _legacy(argv)
    except UnknownScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except UnknownSchemeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
