#!/usr/bin/env python3
"""Trace smoke gate: a pool run's trace reaches the sink, workers and all.

Exercises the trace layer end-to-end (``make trace-smoke``, CI's
``trace-smoke`` job):

1. run a tiny deterministic scenario with ``--workers 2``, the min-work
   probe disabled (``serial_threshold_seconds=0``) and a SQLite sink;
2. query the trace back through :mod:`repro.trace.query` (the same code
   path as ``python -m repro.trace``) and fail unless
   - the run root span and every ``item:<key>`` span are present,
   - the item spans carry **more than one distinct worker pid** (the
     pool-worker merge actually happened; a silent serial fallback is a
     failure),
   - every record's parent id resolves inside the trace (a well-formed
     tree), and
   - each pipeline record's ``trace`` field points at a real span;
3. re-run the same scenario serially with the sink off and fail unless
   ``records.jsonl`` is byte-identical to the traced pool run minus the
   ``trace`` field -- tracing must stay observability-only;
4. run one traced burst-shaped service cell (its intents interleave on
   four planner tasks) and fail unless every ``apply`` event's ancestor
   chain holds exactly one ``service.request`` span and no span's parent
   closed before the span opened -- the current span must be task-local.

Single-core boxes are the reason for the ``available_cpus`` override
below: the runner (correctly) refuses a pool when there is one usable
CPU, but this gate exists precisely to exercise the pool path, so it
lifts the cap for the duration of the smoke.

Usage::

    python scripts/trace_smoke.py
    python scripts/trace_smoke.py --keep          # keep the temp store

Exit status: 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import repro.runtime.parallel as parallel  # noqa: E402
from repro.pipeline.cli import script_parser  # noqa: E402
from repro.pipeline.context import RunContext  # noqa: E402
from repro.pipeline.runner import run_to_store  # noqa: E402
from repro.pipeline.store import ArtifactStore  # noqa: E402
from repro.trace.query import ancestors, filter_records, read_trace  # noqa: E402

SCENARIO = "fig9"
OVERRIDES = {"switch_counts": [20, 30], "instances_per_size": 3}
WORKERS = 2
BURST_CELL = dict(cells=1, pods=8, pod_size=6, requests=40, mean_interarrival=0.25, planners=4)


def _service_nesting_failures(store) -> list:
    """Check 4: a traced burst-shaped cell is one subtree per request."""
    stored = run_to_store(
        "service", overrides=BURST_CELL, ctx=RunContext(trace="jsonl"), store=store, run_id="burst"
    )
    records = read_trace(stored.handle.directory / "trace.jsonl")
    spans = {r.span_id: r for r in records if r.kind == "span"}
    applies = filter_records(records, name="apply", kind="event")
    print(f"[smoke] service cell: {len(applies)} apply event(s) to attribute")
    failures = []
    if not applies or any(
        sum(span.name == "service.request" for span in ancestors(event, spans)) != 1
        for event in applies
    ):
        failures.append("not every apply event sits under exactly one service.request span")
    if any(
        span.end_time is not None  # aggregates carry no interval
        and span.parent_id in spans
        and spans[span.parent_id].end_time < span.start_time
        for span in spans.values()
    ):
        failures.append("a span opened after its parent had closed")
    return failures


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument(
        "--keep", action="store_true", help="keep the temporary store"
    )
    args = parser.parse_args(argv)

    # Lift the CPU cap so the pool really forks, whatever the box.
    parallel.available_cpus = lambda: WORKERS

    root = Path(tempfile.mkdtemp(prefix="trace-smoke-"))
    store = ArtifactStore(root=root)
    failures = []
    try:
        traced = run_to_store(
            SCENARIO,
            overrides=OVERRIDES,
            ctx=RunContext(
                workers=WORKERS,
                trace="sqlite",
                serial_threshold_seconds=0,
            ),
            store=store,
            run_id="traced",
        )
        trace_meta = traced.handle.manifest.get("trace") or {}
        trace_path = Path(trace_meta.get("path", ""))
        print(
            f"[smoke] traced pool run: {len(traced.records)} record(s), "
            f"sink -> {trace_path}"
        )
        if not trace_path.is_file():
            failures.append(f"manifest trace path {trace_path} is not a file")
            raise SystemExit(_finish(failures))

        records = read_trace(trace_path)
        spans = {r.span_id: r for r in records if r.kind == "span"}

        roots = [r for r in spans.values() if r.name == "run"]
        if len(roots) != 1:
            failures.append(f"expected exactly one run root span, got {len(roots)}")

        item_spans = filter_records(records, name="item:", kind="span")
        if len(item_spans) != len(traced.records):
            failures.append(
                f"{len(item_spans)} item span(s) for {len(traced.records)} "
                "pipeline record(s)"
            )
        pids = {r.attributes.get("pid") for r in item_spans}
        if len(pids) < 2:
            failures.append(
                f"item spans carry {len(pids)} distinct pid(s) -- the pool "
                "fell back to serial and no worker spans were merged"
            )
        else:
            print(f"[smoke] {len(item_spans)} item span(s) across pids {sorted(pids)}")

        known = set(spans)
        orphans = [r for r in records if r.parent_id and r.parent_id not in known]
        if orphans:
            failures.append(
                f"{len(orphans)} record(s) with unresolved parent ids, "
                f"e.g. {orphans[0].name!r}"
            )

        for record in traced.records:
            link = record.get("trace")
            if not isinstance(link, dict) or link.get("span_id") not in known:
                failures.append(
                    f"record {record.get('key')!r} lacks a resolvable trace link"
                )
                break

        untraced = run_to_store(
            SCENARIO,
            overrides=OVERRIDES,
            ctx=RunContext(),
            store=store,
            run_id="untraced",
        )
        stripped = [
            {k: v for k, v in record.items() if k != "trace"}
            for record in json.loads(
                "[" + ",".join(
                    traced.handle.records_path.read_text().splitlines()
                ) + "]"
            )
        ]
        plain = [
            json.loads(line)
            for line in untraced.handle.records_path.read_text().splitlines()
        ]
        if stripped != plain:
            failures.append(
                "traced records (minus the trace field) differ from the "
                "untraced serial run"
            )
        failures.extend(_service_nesting_failures(store))
    finally:
        if args.keep:
            print(f"[smoke] store kept at {root}")
        else:
            shutil.rmtree(root, ignore_errors=True)

    return _finish(failures)


def _finish(failures) -> int:
    for failure in failures:
        print(f"TRACE SMOKE FAILURE: {failure}", file=sys.stderr)
    if not failures:
        print(
            "[smoke] OK: pool-worker spans reached the sink, tracing left the "
            "records untouched and service spans nest per request"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
