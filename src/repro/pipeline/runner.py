"""The scenario executor: ordered, checkpointed evaluation of items.

One code path serves every consumer:

* library callers, tests and benchmarks call :func:`run_in_memory`
  (records stay in a list, the aggregate comes back directly);
* ``python -m repro.experiments run|resume`` calls :func:`run_to_store`
  (records stream to the artifact store, checkpointed per record);
* ``report`` calls :func:`report_from_store` (aggregation only -- the
  compute/print decoupling the figures lacked).

A run is its parameters: both entry points materialise them, resolve
``params["schemes"]`` against the planner registry and expand the item
grid (:func:`_expand`) before anything is evaluated or stored, so a bad
value never leaves a run directory behind, and a resume replays exactly
what the manifest stores.  The :class:`RunContext` only says how to run
(workers, tracing, profiling, progress).

Records are produced strictly in item order whatever the worker count:
every pending item goes through one :func:`~repro.runtime.parallel.ordered_map`
(one fork pool for the whole run when ``ctx.workers > 1``, a plain
in-process loop otherwise), and each record is appended -- the run's
checkpoint -- as soon as it and every earlier one are in.  Completed keys
therefore always form a prefix of the item list, which is what makes
interrupted runs resumable byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.pipeline.context import RunContext
from repro.pipeline.scenario import Scenario, get_scenario
from repro.pipeline.store import ArtifactStore, RunHandle, canonical_json, new_run_id
from repro.runtime.parallel import ordered_map
from repro.trace.recorder import recorder
from repro.trace.session import TraceSession
from repro.trace.sinks import open_sink
from repro.updates.registry import planners_for

import json
import os


class RunInterrupted(RuntimeError):
    """Raised when ``stop_after`` cut a run short (simulating a kill).

    The run's manifest is left in status ``running`` and the records
    file holds exactly the completed prefix -- the state a genuine
    mid-run kill leaves behind -- so ``resume`` picks up from here.
    """

    def __init__(self, message: str, handle: Optional[RunHandle] = None):
        super().__init__(message)
        self.handle = handle


@dataclass(frozen=True)
class _ItemTask:
    """Self-contained work unit shipped to a pool worker.

    ``trace_id`` is the run's trace id when a sink is enabled, ``None``
    otherwise: the worker links each record to its ``item:<key>`` span
    only when it matches the process-global recorder's live trace --
    which pool workers inherit, current span included, through ``fork``.
    """

    scenario: str
    params: Mapping[str, object]
    item: Mapping[str, object]
    trace_id: Optional[str] = None


def evaluate_task(task: _ItemTask) -> Dict[str, object]:
    """Worker entry point: look the scenario up and evaluate one item.

    While a session is live (pool workers inherit the configured
    recorder and its current span through ``fork``), the item evaluates
    inside an ``item:<key>`` span: plan spans, the aggregate timers and
    counters they own and executor ``apply``/``late`` events nest below
    it.  When the session feeds a sink (the task's ``trace_id`` names
    the live trace) the returned record carries a ``trace`` field
    linking it to its span.  Untraced runs take the original path
    untouched.
    """
    scenario = get_scenario(task.scenario)
    if not recorder.enabled:
        record = dict(scenario.evaluate(task.item, task.params))
        record.setdefault("key", task.item["key"])
        return record

    key = str(task.item["key"])
    attributes = {"pid": os.getpid(), "key": key}
    for extra in ("switch_count", "seed"):
        if extra in task.item:
            attributes[extra] = task.item[extra]
    with recorder.span(f"item:{key}", attributes) as span:
        record = dict(scenario.evaluate(task.item, task.params))
        record.setdefault("key", task.item["key"])
    if task.trace_id == recorder.trace_id:
        record["trace"] = {"trace_id": recorder.trace_id, "span_id": span.span_id}
    return record


@dataclass
class ExecutionSummary:
    """What one :func:`execute` call did."""

    total_items: int = 0
    skipped: int = 0
    emitted: int = 0
    satisfied_early: bool = False  # the scenario's enough() stopped the run


def _materialise(
    scenario: Scenario,
    overrides: Optional[Mapping[str, object]] = None,
    paper: bool = False,
) -> Dict[str, object]:
    """The run's parameters, JSON-normalised exactly as the store keeps
    them, so in-memory, stored and resumed runs evaluate identical data."""
    return json.loads(canonical_json(scenario.params_with(overrides, paper=paper)))


def _expand(scenario: Scenario, params: Mapping[str, object]) -> List[Mapping]:
    """The run's item grid, checked before any item runs or is stored.

    Raises :class:`~repro.updates.registry.UnknownSchemeError` on an
    unregistered name in ``params["schemes"]``, whatever the grid itself
    refuses (an unknown sweep ``workload``) and duplicate item keys.
    """
    if "schemes" in params:
        planners_for(params["schemes"])  # type: ignore[arg-type]
    items = list(scenario.items(params))
    keys = [str(item["key"]) for item in items]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(
            f"scenario {scenario.name!r} produced duplicate item keys: {dupes}"
        )
    return items


def execute(
    scenario: Scenario,
    params: Mapping[str, object],
    items: Sequence[Mapping],
    ctx: RunContext,
    sink: Callable[[Dict[str, object]], None],
    prior_records: Sequence[Mapping[str, object]] = (),
    stop_after: Optional[int] = None,
    trace: Optional[TraceSession] = None,
) -> ExecutionSummary:
    """Evaluate ``items`` (:func:`_expand`) in order, feeding each record to ``sink``.

    ``prior_records`` (a resumed run's completed prefix) are skipped by
    key and counted toward the scenario's ``enough`` predicate.  Every
    record is normalised through canonical JSON before ``sink`` sees it,
    so in-memory aggregation operates on exactly what a stored run would
    read back.  ``stop_after`` raises :class:`RunInterrupted` once that
    many *new* records have been sunk.

    ``trace`` (a :class:`~repro.trace.session.TraceSession` not yet
    begun) turns the run into a trace or a profile: the executor begins
    the session, flushes buffered records to its sink or tape after
    every checkpointed record, and finishes it -- with status
    ``interrupted`` when ``stop_after`` or the caller's kill cuts the run
    short -- however the run ends, so the recorder is never left on.
    """
    done = {str(record["key"]) for record in prior_records}
    unknown = done - {str(item["key"]) for item in items}
    if unknown:
        raise ValueError(
            f"stored records of {scenario.name!r} carry keys absent from the "
            f"item grid (params changed?): {sorted(unknown)[:5]}"
        )
    pending = [item for item in items if str(item["key"]) not in done]
    summary = ExecutionSummary(
        total_items=len(items), skipped=len(items) - len(pending)
    )
    records: List[Mapping[str, object]] = list(prior_records)
    if scenario.enough is not None and scenario.enough(records, params):
        summary.satisfied_early = True
        return summary

    if trace is not None:
        trace.begin(params)
    trace_id = trace.trace_id if trace is not None and trace.sink is not None else None
    tasks = [_ItemTask(scenario.name, params, item, trace_id) for item in pending]
    results = ordered_map(evaluate_task, tasks, ctx.workers)
    status = "interrupted"
    try:
        for record in results:
            record = json.loads(canonical_json(record))
            sink(record)
            records.append(record)
            summary.emitted += 1
            if ctx.progress is not None:
                ctx.progress(summary.skipped + summary.emitted, len(items))
            if stop_after is not None and summary.emitted >= stop_after:
                raise RunInterrupted(
                    f"stopped {scenario.name} after {summary.emitted} new "
                    f"record(s) as requested"
                )
            if scenario.enough is not None and scenario.enough(records, params):
                summary.satisfied_early = True
                status = "ok"
                return summary
            if trace is not None:
                trace.flush()
        status = "ok"
        return summary
    finally:
        # Stop the pool (if one runs) before the session ends.
        results.close()
        if trace is not None:
            trace.finish(status)


@dataclass
class StoredRun:
    """Result of :func:`run_to_store`: the handle plus what happened."""

    scenario: Scenario
    params: Dict[str, object]
    handle: RunHandle
    summary: ExecutionSummary
    records: List[Dict[str, object]] = field(default_factory=list)

    def aggregate(self):
        return self.scenario.aggregate(self.records, self.params)


def _trace_session(
    ctx: RunContext, scenario_name: str, run_id: str, directory=None
) -> Optional[TraceSession]:
    """The run's :class:`TraceSession` when ``ctx`` asks for a trace or a profile."""
    if not ctx.trace and ctx.tape is None:
        return None
    sink = open_sink(ctx.trace, directory=directory) if ctx.trace else None
    return TraceSession(sink, scenario=scenario_name, run_id=run_id, tape=ctx.tape)


def run_in_memory(
    name: str,
    overrides: Optional[Mapping[str, object]] = None,
    ctx: Optional[RunContext] = None,
    paper: bool = False,
):
    """Run a scenario without the store and return its aggregate result."""
    scenario = get_scenario(name)
    params = _materialise(scenario, overrides, paper)
    items = _expand(scenario, params)
    records: List[Dict[str, object]] = []
    ctx = ctx or RunContext()
    # In-memory runs have no run directory: file sinks without an
    # explicit path land in the working directory.
    trace = _trace_session(ctx, name, new_run_id())
    execute(scenario, params, items, ctx, records.append, trace=trace)
    return scenario.aggregate(records, params)


def run_to_store(
    name: str,
    overrides: Optional[Mapping[str, object]] = None,
    ctx: Optional[RunContext] = None,
    store: Optional[ArtifactStore] = None,
    run_id: Optional[str] = None,
    resume: bool = False,
    paper: bool = False,
    stop_after: Optional[int] = None,
) -> StoredRun:
    """Run (or resume) a scenario against the artifact store.

    A fresh run materialises the parameters, expands the grid
    (:func:`_expand`) and opens the trace sink (a bad value or sink spec
    raises before any run directory exists), creates
    ``<root>/<name>/<run-id>/`` and streams records; a resumed run reads
    the parameters back from the manifest, skips the completed prefix and
    appends only the missing records -- the final ``records.jsonl`` is
    byte-identical to an uninterrupted run.
    """
    scenario = get_scenario(name)
    store = store or ArtifactStore()
    ctx = ctx or RunContext()
    if resume:
        handle = store.open(name, run_id)
        params = handle.params
        run_id = handle.run_id
        missing = sorted(set(scenario.defaults) - set(params))
        if missing:
            # Guessing a default would mix records of two configurations.
            raise ValueError(
                f"run {name}/{run_id} stores no {missing}: it predates "
                "those parameters, so start a new run"
            )
        extra = sorted(set(params) - set(scenario.defaults))
        if extra:
            # Dropping a value the records were made under would append
            # records of another configuration.
            raise ValueError(
                f"run {name}/{run_id} stores {extra}, which {name} no longer "
                "declares: it predates their removal, so start a new run"
            )
    else:
        params = _materialise(scenario, overrides, paper)
        if run_id is None:
            run_id = new_run_id()
    items = _expand(scenario, params)
    # The sink opens its file with the first record: a refused spec
    # raises here, before the store is written.
    trace = _trace_session(ctx, name, run_id, directory=store.run_directory(name, run_id))
    if resume:
        prior = handle.load_records()
        handle.manifest["status"] = "running"
        handle.write_manifest()
    else:
        handle = store.create(name, params, run_id=run_id)
        prior = []

    records: List[Dict[str, object]] = list(prior)

    def sink(record: Dict[str, object]) -> None:
        with recorder.timer("pipeline.store.append"):
            handle.append(record)
        records.append(record)

    if trace is not None and trace.sink is not None:
        # Stamp the manifest so `python -m repro.trace` (and readers of
        # the run directory) can find the trace without guessing.
        handle.manifest["trace"] = {
            "sink": ctx.trace,
            "trace_id": trace.trace_id,
            "path": str(trace.sink.path),
        }
        handle.write_manifest()

    try:
        summary = execute(
            scenario,
            params,
            items,
            ctx,
            sink,
            prior_records=prior,
            stop_after=stop_after,
            trace=trace,
        )
    except RunInterrupted as interrupted:
        # Leave the manifest in `running` -- exactly what a kill leaves.
        handle._close_records()
        interrupted.handle = handle
        raise
    handle.finish(status="complete", records=len(records))
    return StoredRun(
        scenario=scenario,
        params=dict(params),
        handle=handle,
        summary=summary,
        records=records,
    )


def report_from_store(
    name: str,
    store: Optional[ArtifactStore] = None,
    run_id: Optional[str] = None,
):
    """Aggregate a stored run's records: pure reporting, no computation."""
    scenario = get_scenario(name)
    store = store or ArtifactStore()
    handle = store.open(name, run_id)
    return scenario.aggregate(handle.load_records(), handle.params)
