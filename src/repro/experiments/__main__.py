"""The unified experiments CLI: ``python -m repro.experiments``.

Subcommands over the scenario registry and the artifact store::

    python -m repro.experiments list
    python -m repro.experiments run fig7 --workers 4 --set instances_per_size=50
    python -m repro.experiments resume fig7            # pick up a killed run
    python -m repro.experiments report fig7            # re-render, no compute

``run`` streams records to ``runs/<scenario>/<run-id>/`` (override the
root with ``--runs-dir`` or ``$REPRO_RUNS_DIR``), checkpointed per
record; a killed run resumes byte-identically.  ``report`` aggregates a
stored run without recomputing anything.  A result whose ``ok`` is false
(the ``gate`` scenario's disagreements, the ``faults`` oracle cross-check,
a ``verify`` sweep the verifier contradicts) is printed, even under
``--no-report``, and ``run``, ``resume`` and ``report`` exit 1.  A
subcommand is required, and scenario names must match a registered
scenario **exactly** (``run fig1`` exits 2 naming ``fig10`` and
``fig11``).  Library callers use :func:`repro.pipeline.run_in_memory`
instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.pipeline.cli import (
    finish_progress,
    parse_override,
    progress_printer,
)
from repro.pipeline.context import RunContext
from repro.pipeline.runner import (
    RunInterrupted,
    report_from_store,
    run_to_store,
)
from repro.pipeline.scenario import (
    UnknownScenarioError,
    all_scenarios,
)
from repro.pipeline.store import ArtifactStore, StoreError
from repro.trace.query import profile_of, render_report
from repro.updates.registry import UnknownSchemeError

#: Exit code of a run or report whose result says ``ok = False`` (a gate
#: disagreement, an oracle or verifier contradicting a record); a result
#: without ``ok`` (a plain figure) always passes.
EXIT_FAILED = 1

#: Exit code of a ``--stop-after`` interruption (distinct from argparse's 2).
EXIT_INTERRUPTED = 3


def _add_context_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record the run in memory and print its timers, counters and derived views",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="SINK",
        help="record an execution trace to jsonl[:PATH]; the file "
        "defaults into the run directory (inspect with python -m repro.trace)",
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
    sub = parser.add_subparsers(dest="command", required=True)

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
    return RunContext(
        workers=args.workers,
        trace=args.trace,
        tape=[] if args.profile else None,
        progress=progress_printer("record", quiet=args.quiet),
    )


def _store(args: argparse.Namespace) -> ArtifactStore:
    return ArtifactStore(root=args.runs_dir)


def _print_profile(ctx: RunContext) -> None:
    if ctx.tape is not None:
        print(render_report(profile_of(ctx.tape), min_seconds=0.001))


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


def _overrides(args: argparse.Namespace) -> Dict[str, object]:
    """The ``--set`` overrides, with the comma shorthand for ``schemes``
    (``--set schemes=chronus,aug``) made the list a JSON override gives."""
    overrides = dict(args.overrides)
    value = overrides.get("schemes")
    if isinstance(value, str):
        overrides["schemes"] = [name for name in value.split(",") if name]
    return overrides


def _cmd_run(args: argparse.Namespace, resume: bool) -> int:
    ctx = _context(args)
    try:
        stored = run_to_store(
            args.scenario,
            overrides=_overrides(args),
            ctx=ctx,
            store=_store(args),
            run_id=args.run_id,
            resume=resume,
            paper=args.paper,
            stop_after=args.stop_after,
        )
    except ValueError as exc:
        # Unknown --set key, unregistered scheme, a value the grid refuses,
        # missing --paper preset or a refused --trace spec (all raised
        # before a fresh run's directory exists), or stored records the
        # grid does not hold: a usage error naming the valid choices, not
        # a crash.
        print(str(exc), file=sys.stderr)
        return 2
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
    result = stored.aggregate()
    ok = getattr(result, "ok", True)
    if not args.no_report or not ok:
        print(result.render())
    _print_profile(ctx)
    return 0 if ok else EXIT_FAILED


def _cmd_report(args: argparse.Namespace) -> int:
    result = report_from_store(
        args.scenario, store=_store(args), run_id=args.run_id
    )
    print(result.render())
    return 0 if getattr(result, "ok", True) else EXIT_FAILED


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args, resume=False)
        if args.command == "resume":
            args.overrides = []
            args.paper = False
            return _cmd_run(args, resume=True)
        return _cmd_report(args)
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
