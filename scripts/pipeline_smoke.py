#!/usr/bin/env python3
"""Pipeline smoke gate: interrupted-and-resumed equals uninterrupted.

Exercises the scenario pipeline end-to-end on a tiny, fully deterministic
grid (``make pipeline-smoke``, CI's ``pipeline-smoke`` job):

1. run the scenario uninterrupted into run ``full``;
2. run it again with ``--stop-after K`` (the executor raises mid-run and
   leaves the manifest in status ``running`` -- a simulated kill), then
   append a partial line to ``records.jsonl`` to model dying mid-write;
3. resume the interrupted run;
4. fail unless the resumed ``records.jsonl`` is **byte-identical** to the
   uninterrupted one, the resume skipped exactly K records, and both
   manifests agree on the config hash.

Steps 2-4 run twice: in-process (``RunContext(workers=1)``) and at
``RunContext(workers=2)``, where the cut lands while the run's pool is
busy (on a single-CPU box the second pass runs in-process too).

Usage::

    python scripts/pipeline_smoke.py                   # fig9 tiny grid
    python scripts/pipeline_smoke.py --scenario fig7 --stop-after 3
    python scripts/pipeline_smoke.py --scenario fig6 --stop-after 1
    python scripts/pipeline_smoke.py --keep            # keep the temp store

Exit status: 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.pipeline.cli import script_parser  # noqa: E402
from repro.pipeline.context import RunContext  # noqa: E402
from repro.pipeline.runner import RunInterrupted, run_to_store  # noqa: E402
from repro.pipeline.store import ArtifactStore  # noqa: E402

#: Tiny but multi-record grids, deterministic on any machine (no
#: wall-clock budgets anywhere in the evaluated schemes).
SMOKE_OVERRIDES = {
    "fig9": {"switch_counts": [20, 30], "instances_per_size": 3},
    "fig7": {
        "switch_counts": [10],
        "instances_per_size": 6,
        "opt_budget": 60.0,
        "or_budget": 60.0,
        "opt_node_budget": 20_000,
        "or_node_budget": 20_000,
        "verify": True,
    },
    # Over a lossy control channel: a resume must replay the severity.
    "fig6": {"fault_severity": 1.0},
}

#: Worker counts the cut-and-resume runs at: in-process, then one pool.
WORKERS = (1, 2)


def _cut_and_resume(scenario, overrides, store, stop_after, full, workers) -> list:
    """Steps 2-4 at ``workers`` against the uninterrupted run ``full``."""
    run_id = f"interrupted-w{workers}"
    label = f"[smoke] workers={workers}:"
    failures = []
    try:
        run_to_store(
            scenario,
            overrides=overrides,
            ctx=RunContext(workers=workers),
            store=store,
            run_id=run_id,
            stop_after=stop_after,
        )
        failures.append(f"{label} stop_after={stop_after} did not interrupt the run")
    except RunInterrupted as interrupted:
        print(f"{label} {interrupted}")
        # Model a kill mid-write: a dangling partial line.
        with open(interrupted.handle.records_path, "a") as handle:
            handle.write('{"key":"torn-')

    resumed = run_to_store(
        scenario,
        ctx=RunContext(workers=workers),
        store=store,
        run_id=run_id,
        resume=True,
    )
    print(
        f"{label} resumed: skipped {resumed.summary.skipped}, "
        f"emitted {resumed.summary.emitted}"
    )
    if resumed.handle.records_path.read_bytes() != full.handle.records_path.read_bytes():
        failures.append(
            f"{label} resumed records.jsonl differs from the uninterrupted run"
        )
    if resumed.summary.skipped != stop_after:
        failures.append(
            f"{label} resume skipped {resumed.summary.skipped} record(s), "
            f"expected {stop_after}"
        )
    full_hash = full.handle.manifest["config_hash"]
    resumed_hash = resumed.handle.manifest["config_hash"]
    if resumed_hash != full_hash:
        failures.append(
            f"{label} config hashes diverged: {full_hash} != {resumed_hash}"
        )
    if resumed.handle.manifest["status"] != "complete":
        failures.append(
            f"{label} resumed manifest status is "
            f"{resumed.handle.manifest['status']!r}, not 'complete'"
        )
    return failures


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument(
        "--scenario",
        default="fig9",
        choices=sorted(SMOKE_OVERRIDES),
        help="scenario to smoke (default fig9: deterministic, seconds)",
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        default=2,
        metavar="K",
        help="records before the simulated kill (default 2)",
    )
    parser.add_argument(
        "--keep", action="store_true", help="keep the temporary store"
    )
    args = parser.parse_args(argv)

    overrides = SMOKE_OVERRIDES[args.scenario]
    root = Path(tempfile.mkdtemp(prefix="pipeline-smoke-"))
    store = ArtifactStore(root=root)
    failures = []
    try:
        full = run_to_store(
            args.scenario,
            overrides=overrides,
            ctx=RunContext(),
            store=store,
            run_id="full",
        )
        print(
            f"[smoke] uninterrupted: {len(full.records)} record(s) "
            f"-> {full.handle.records_path}"
        )

        for workers in WORKERS:
            failures += _cut_and_resume(
                args.scenario, overrides, store, args.stop_after, full, workers
            )
    finally:
        if args.keep:
            print(f"[smoke] store kept at {root}")
        else:
            shutil.rmtree(root, ignore_errors=True)

    for failure in failures:
        print(f"PIPELINE SMOKE FAILURE: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"[smoke] OK: interrupted-after-{args.stop_after} + resume is "
            "byte-identical to the uninterrupted run at workers "
            + ", ".join(map(str, WORKERS))
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
