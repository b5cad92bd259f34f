"""The trace layer: ids, sinks, pool-worker merge, query CLI.

The hard guarantees under test:

* run ids never collide (same second, same process) and sort in
  creation order -- fixed-width pid and sequence fields;
* manifests and trace records carry timezone-aware UTC timestamps;
* a JSONL sink round-trips its records, and a file that is not a JSONL
  trace (a SQLite trace of older versions too) is a typed error naming
  ``path:line``;
* a pool run's trace is record-for-record identical to the serial run's
  in its :meth:`TraceRecord.stable_view` projection, and a profiled pool
  run's aggregate timers and counters come back on the one tape (nothing
  is silently dropped under the pool);
* tracing is observability-only: records gain exactly the ``trace``
  link field and nothing else, and stay untouched with sinks off;
* the current span is task-local: interleaved coroutines and handles
  closed out of order never become each other's parents, and a traced
  service cell is one subtree per request;
* a run's session -- traced or profiled, finished or interrupted --
  releases the recorder.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import re
from datetime import datetime, timedelta

import pytest

import repro.pipeline.scenario as scenario_mod
import repro.pipeline.store as store_mod
from repro.experiments import fig6
from repro.experiments.sweep import mixed_instance
from repro.pipeline.context import RunContext
from repro.pipeline.runner import RunInterrupted, run_in_memory, run_to_store
from repro.pipeline.store import ArtifactStore, new_run_id
from repro.trace.__main__ import main as trace_cli
from repro.trace.query import (
    TraceQueryError,
    aggregate,
    default_trace_path,
    profile_of,
    read_trace,
)
from repro.trace.record import (
    TraceRecord,
    derive_span_id,
    derive_trace_id,
    utc_now_iso,
)
from repro.trace.recorder import NULL_SPAN, recorder
from repro.trace.session import TraceSession
from repro.trace.sinks import JsonlSink, open_sink
from tests.test_trace_goldens import ancestors

TINY_FIG9 = {"switch_counts": [20], "instances_per_size": 4}


@pytest.fixture(autouse=True)
def _recorder_is_released():
    """No test may find the recorder on, or leave it on."""
    assert not recorder.enabled
    yield
    assert not recorder.enabled


def pool_ctx(**kwargs) -> RunContext:
    return RunContext(workers=2, **kwargs)


# --- run ids (satellite: same-second collision, sortable width) --------

def test_run_id_shape():
    assert re.fullmatch(r"\d{8}T\d{6}-\d{8}-\d{6}", new_run_id())


def test_run_ids_unique_within_one_second(monkeypatch):
    monkeypatch.setattr(store_mod.time, "gmtime", lambda: (2026, 1, 2, 3, 4, 5, 0, 0, 0))
    ids = [new_run_id() for _ in range(50)]
    assert len(set(ids)) == 50
    assert ids == sorted(ids)  # lexicographic order == creation order


def test_same_second_runs_do_not_collide_in_store(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod.time, "gmtime", lambda: (2026, 1, 2, 3, 4, 5, 0, 0, 0))
    store = ArtifactStore(root=tmp_path)
    first = store.create("fig9", {"x": 1})
    second = store.create("fig9", {"x": 1})  # used to raise StoreError
    assert first.run_id != second.run_id
    assert store.latest_run_id("fig9") == second.run_id


def test_run_id_pid_width_sorts_correctly(tmp_path, monkeypatch):
    """Regression: variable-width ``-99`` sorted after ``-100``."""
    monkeypatch.setattr(store_mod.time, "gmtime", lambda: (2026, 1, 2, 3, 4, 5, 0, 0, 0))
    store = ArtifactStore(root=tmp_path)
    monkeypatch.setattr(store_mod.os, "getpid", lambda: 99)
    older = store.create("fig9", {})
    monkeypatch.setattr(store_mod.os, "getpid", lambda: 100)
    newer = store.create("fig9", {})
    assert store.run_ids("fig9") == [older.run_id, newer.run_id]
    assert store.latest_run_id("fig9") == newer.run_id


# --- UTC timestamps (satellite) ----------------------------------------

def _assert_utc(stamp: str) -> None:
    parsed = datetime.fromisoformat(stamp)
    assert parsed.tzinfo is not None, f"naive timestamp: {stamp!r}"
    assert parsed.utcoffset() == timedelta(0)


def test_manifest_timestamps_are_utc(tmp_path):
    store = ArtifactStore(root=tmp_path)
    handle = store.create("fig9", {"x": 1})
    _assert_utc(handle.manifest["created_at"])
    handle.finish(status="complete", records=0)
    _assert_utc(handle.manifest["finished_at"])


def test_trace_timestamps_are_utc():
    _assert_utc(utc_now_iso())


# --- record schema and derived ids ------------------------------------

def test_derived_ids_are_deterministic():
    assert derive_trace_id("fig9", "r1") == derive_trace_id("fig9", "r1")
    assert derive_trace_id("fig9", "r1") != derive_trace_id("fig9", "r2")
    assert len(derive_trace_id("fig9", "r1")) == 32
    span = derive_span_id("t" * 32, None, "run", 0)
    assert span == derive_span_id("t" * 32, None, "run", 0)
    assert span != derive_span_id("t" * 32, None, "run", 1)
    assert len(span) == 16


def test_stable_view_drops_only_volatile_fields():
    record = TraceRecord(
        kind="span",
        trace_id="t" * 32,
        span_id="s" * 16,
        parent_id=None,
        name="item:x",
        scenario="fig9",
        start_time=utc_now_iso(),
        end_time=utc_now_iso(),
        duration_ms=1.5,
        attributes={"pid": 123, "seconds": 0.1, "key": "x", "calls": 2},
    )
    view = record.stable_view()
    assert "start_time" not in view and "duration_ms" not in view
    assert view["attributes"] == {"key": "x", "calls": 2}
    assert view["span_id"] == "s" * 16


# --- sinks (satellite: JSONL round-trips identically to SQLite) --------

def _sample_records():
    trace_id = derive_trace_id("fig9", "r1")
    root = derive_span_id(trace_id, None, "run", 0)
    return [
        TraceRecord(
            kind="span",
            trace_id=trace_id,
            span_id=root,
            parent_id=None,
            name="run",
            scenario="fig9",
            start_time=utc_now_iso(),
            end_time=utc_now_iso(),
            duration_ms=12.25,
            attributes={"run_id": "r1"},
        ),
        TraceRecord(
            kind="event",
            trace_id=trace_id,
            span_id=derive_span_id(trace_id, root, "event:apply", 0),
            parent_id=root,
            name="apply",
            scenario="fig9",
            start_time=utc_now_iso(),
            attributes={"switch": "s3", "planned": 5.5, "applied": 5.6},
        ),
    ]


def test_jsonl_sink_round_trips(tmp_path):
    records = _sample_records()
    sink = JsonlSink(tmp_path / "trace.jsonl")
    for record in records:
        sink.emit(record)
    sink.close()
    assert read_trace(tmp_path / "trace.jsonl") == records


def _jsonl_lines(records):
    return "".join(json.dumps(record.to_json()) + "\n" for record in records)


def test_torn_last_jsonl_line_is_dropped(tmp_path, capsys):
    records = _sample_records()
    path = tmp_path / "trace.jsonl"
    whole = _jsonl_lines(records)
    path.write_text(whole + whole[: len(whole) // 3])  # killed mid-write
    assert read_trace(path) == records
    assert trace_cli(["show", "--path", str(path)]) == 0


def test_a_second_session_cuts_a_torn_tail_before_appending(tmp_path):
    """A resumed run's session appends to the file its killed attempt left:
    the torn last line goes first, so every complete record of both
    sessions reads back."""
    path = tmp_path / "trace.jsonl"
    with TraceSession(JsonlSink(path), scenario="torn", run_id="r1"):
        with recorder.span("first"):
            pass
    first = read_trace(path)
    whole = path.read_text()
    path.write_text(whole + whole[: len(whole) // 3])  # killed mid-write
    with TraceSession(JsonlSink(path), scenario="torn", run_id="r1"):
        with recorder.span("second"):
            pass
    records = read_trace(path)
    assert records[: len(first)] == first
    assert [r.name for r in records[len(first):] if r.kind == "span"] == ["second", "run"]


@pytest.mark.parametrize(
    "bad",
    ['{"kind": "span", "trace_id"\n', "[1, 2]\n", '{"colour": "red"}\n', "7"],
    ids=["cut-mid-file", "not-an-object", "not-a-record", "unterminated-non-record"],
)
def test_malformed_jsonl_line_names_its_place(tmp_path, capsys, bad):
    good = _jsonl_lines(_sample_records()[:1])
    path = tmp_path / "trace.jsonl"
    path.write_text(good + bad + (good if bad.endswith("\n") else ""))
    with pytest.raises(TraceQueryError, match=re.escape(f"{path}:2:")):
        read_trace(path)
    assert trace_cli(["show", "--path", str(path)]) == 2
    assert f"{path}:2:" in capsys.readouterr().err


def test_a_stale_sqlite_trace_is_a_typed_error(tmp_path, capsys):
    """Older versions could trace to SQLite (``--trace sqlite``); such a
    file ends in the error a malformed trace gets, not in a traceback or
    an empty trace."""
    import sqlite3

    path = tmp_path / "trace.db"
    conn = sqlite3.connect(str(path))
    conn.execute(  # the old sink's table, multi-line DDL as it wrote it
        """
        CREATE TABLE records (
            seq         INTEGER PRIMARY KEY AUTOINCREMENT,
            kind        TEXT NOT NULL,
            name        TEXT NOT NULL,
            attributes  TEXT NOT NULL
        )"""
    )
    conn.execute("INSERT INTO records (kind, name, attributes) VALUES ('span', 'run', '{}')")
    conn.commit()
    conn.close()
    with pytest.raises(TraceQueryError, match=re.escape(f"{path}:1:")):
        read_trace(path)
    assert trace_cli(["show", "--path", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:" in err and "Traceback" not in err


def test_open_sink_specs(tmp_path):
    assert open_sink("jsonl", directory=tmp_path).path == tmp_path / "trace.jsonl"
    explicit = open_sink(f"jsonl:{tmp_path / 'custom.jsonl'}")
    assert explicit.path == tmp_path / "custom.jsonl"
    with pytest.raises(ValueError):
        open_sink("kafka", directory=tmp_path)


# --- serial vs pool lockstep (tentpole) --------------------------------

def _traced_run(tmp_path, label, ctx):
    store = ArtifactStore(root=tmp_path / label)
    stored = run_to_store(
        "fig9", overrides=TINY_FIG9, ctx=ctx, store=store, run_id="r1"
    )
    trace_path = stored.handle.directory / "trace.jsonl"
    return stored, read_trace(trace_path)


def _workers_meet_on_first_items(monkeypatch, name: str, workers: int = 2) -> None:
    """Hold each pool worker's first item of scenario ``name`` at a barrier
    the workers inherit through ``fork`` until all ``workers`` hold one, so
    no worker can take every item (however the scheduler runs them)."""
    barrier = multiprocessing.get_context("fork").Barrier(workers, timeout=30)
    scenario = scenario_mod.get_scenario(name)
    held = []  # per process: each worker gets its own (empty) copy

    def evaluate(item, params):
        if not held:
            held.append(item["key"])
            barrier.wait()
        return scenario.evaluate(item, params)

    monkeypatch.setitem(
        scenario_mod._REGISTRY, name, dataclasses.replace(scenario, evaluate=evaluate)
    )


def test_serial_and_pool_traces_are_lockstep(tmp_path, two_cpus, monkeypatch):
    serial_stored, serial_trace = _traced_run(
        tmp_path, "serial", RunContext(trace="jsonl")
    )
    _workers_meet_on_first_items(monkeypatch, "fig9")
    pool_stored, pool_trace = _traced_run(tmp_path, "pool", pool_ctx(trace="jsonl"))

    # The merged pool trace is one tree: one root, every parent id
    # resolves inside the trace, and one item span per stored record.
    spans = {r.span_id for r in pool_trace if r.kind == "span"}
    assert [r.name for r in pool_trace if r.name == "run"] == ["run"]
    assert [r.name for r in pool_trace if r.parent_id and r.parent_id not in spans] == []
    items = [r for r in pool_trace if r.kind == "span" and r.name.startswith("item:")]
    assert len(items) == len(pool_stored.records)

    assert [r.stable_view() for r in serial_trace] == [
        r.stable_view() for r in pool_trace
    ]
    # The pipeline records themselves (trace links included, since the
    # run ids match) are byte-identical between serial and pool.
    assert (
        serial_stored.handle.records_path.read_bytes()
        == pool_stored.handle.records_path.read_bytes()
    )
    # The pool run really pooled: item spans from more than one process.
    pids = {
        r.attributes.get("pid")
        for r in pool_trace
        if r.name.startswith("item:")
    }
    assert len(pids) >= 2, f"pool fell back to serial (pids: {pids})"


def test_traced_records_link_to_real_spans(tmp_path):
    stored, trace = _traced_run(tmp_path, "linked", RunContext(trace="jsonl"))
    span_ids = {r.span_id for r in trace if r.kind == "span"}
    trace_id = derive_trace_id("fig9", "r1")
    assert stored.records, "expected records"
    for record in stored.records:
        assert record["trace"]["trace_id"] == trace_id
        assert record["trace"]["span_id"] in span_ids


def test_untraced_records_carry_no_trace_field(tmp_path):
    store = ArtifactStore(root=tmp_path)
    stored = run_to_store(
        "fig9", overrides=TINY_FIG9, ctx=RunContext(), store=store, run_id="r1"
    )
    assert all("trace" not in record for record in stored.records)


def test_tracing_changes_records_only_by_the_trace_field(tmp_path):
    traced_store, _ = _traced_run(tmp_path, "on", RunContext(trace="jsonl"))
    plain = run_to_store(
        "fig9",
        overrides=TINY_FIG9,
        ctx=RunContext(),
        store=ArtifactStore(root=tmp_path / "off"),
        run_id="r1",
    )
    stripped = [
        {k: v for k, v in record.items() if k != "trace"}
        for record in traced_store.records
    ]
    assert stripped == plain.records


def test_trace_session_restores_global_state(tmp_path):
    assert not recorder.enabled
    _traced_run(tmp_path, "restore", RunContext(trace="jsonl"))
    assert not recorder.enabled, "TraceSession must release the recorder"
    assert recorder.current() is NULL_SPAN


def test_profiled_run_releases_the_recorder(tmp_path):
    """A profiled run (``RunContext(tape=[])``) used to switch the
    process-global perf registry on for good: every later plan in the
    process was profiled."""
    ctx = RunContext(tape=[])
    run_in_memory("fig9", overrides=TINY_FIG9, ctx=ctx)
    assert not recorder.enabled
    assert any(record.name == "run" for record in ctx.tape)

    interrupted = RunContext(tape=[])
    with pytest.raises(RunInterrupted):
        run_to_store(
            "fig9",
            overrides=TINY_FIG9,
            ctx=interrupted,
            store=ArtifactStore(root=tmp_path),
            run_id="r1",
            stop_after=2,
        )
    assert not recorder.enabled, "an interrupted profile must release it too"
    (root,) = [record for record in interrupted.tape if record.name == "run"]
    assert root.status == "interrupted"


def test_profiled_records_carry_no_trace_field(tmp_path):
    """A profile is a session without a sink: nothing to link records to."""
    stored = run_to_store(
        "fig9",
        overrides=TINY_FIG9,
        ctx=RunContext(tape=[]),
        store=ArtifactStore(root=tmp_path),
        run_id="r1",
    )
    assert all("trace" not in record for record in stored.records)
    assert "trace" not in stored.handle.manifest


# --- pool profile merge: worker aggregates come back on the one tape ----

#: fig9 is analytic (no instrumented engines); fig7's node budgets bound
#: the search deterministically, so span/counter totals are
#: machine-independent and must agree serial vs pool exactly.
TINY_FIG7 = {
    "switch_counts": [10],
    "instances_per_size": 4,
    "opt_budget": 60.0,
    "or_budget": 60.0,
    "opt_node_budget": 20_000,
    "or_node_budget": 20_000,
}


def _profiled_counts(ctx):
    run_in_memory("fig7", overrides=TINY_FIG7, ctx=ctx)
    profile = aggregate(ctx.tape)
    return {
        path: stat["calls"] for path, stat in profile["spans"].items()
    }, dict(profile["counters"])


def test_pool_perf_spans_merge_back(two_cpus):
    serial_calls, serial_counters = _profiled_counts(RunContext(tape=[]))
    pool_calls, pool_counters = _profiled_counts(pool_ctx(tape=[]))
    # Without the worker merge the pool report only held the parent's
    # own spans; now every per-item span and counter comes back.
    assert pool_calls == serial_calls
    assert pool_counters == serial_counters
    # A worker-side leaf three timers deep; the item-level sharing counters
    # ride the same merge (OPT takes Chronus' greedy: no ``opt.seed`` leaf;
    # a replay commits its rounds untimed, under the measure timer).
    assert "greedy.select.tracker.probe" in pool_calls
    assert "analysis.metrics.measure" in pool_calls
    assert not any(path.startswith("analysis.metrics.measure.") for path in pool_calls)
    assert pool_counters["sweep.incumbent.reused"] == TINY_FIG7["instances_per_size"]


# --- resume appends to the same trace ----------------------------------

def test_resumed_run_extends_the_same_trace(tmp_path, two_cpus, capsys):
    # Each attempt opens its own root, so no id repeats: the two attempts
    # of one run used to derive the same root (and so the same children).
    for workers in (1, 2):
        store = ArtifactStore(root=tmp_path / f"w{workers}")
        ctx = RunContext(trace="jsonl", workers=workers)
        with pytest.raises(RunInterrupted):
            run_to_store(
                "fig9", overrides=TINY_FIG9, ctx=ctx, store=store, run_id="r1",
                stop_after=2,
            )
        resumed = run_to_store("fig9", ctx=ctx, store=store, run_id="r1", resume=True)
        trace = read_trace(resumed.handle.directory / "trace.jsonl")
        trace_id = derive_trace_id("fig9", "r1")
        assert {r.trace_id for r in trace} == {trace_id}
        ids = [r.span_id for r in trace if r.kind == "span"]
        assert len(ids) == len(set(ids)), workers
        roots = [r for r in trace if r.parent_id is None]
        assert [r.name for r in roots] == ["run", "run"], workers
        assert roots[0].span_id == derive_span_id(trace_id, None, "run", 0)
        by_id = {r.span_id: r for r in trace if r.kind == "span"}
        item_spans = [r for r in trace if r.name.startswith("item:")]
        keys = [r.attributes["key"] for r in item_spans]
        assert sorted(keys) == sorted(str(r["key"]) for r in resumed.records)
        for item in item_spans:
            assert [a for a in ancestors(item, by_id) if a.parent_id is None] in (
                [roots[0]], [roots[1]]
            ), (workers, item.name)
        capsys.readouterr()
        assert trace_cli(["show", "--runs-dir", str(tmp_path / f"w{workers}")]) == 0
        shown = capsys.readouterr().out
        assert sum("item:" in line for line in shown.splitlines()) == len(keys)


# --- query CLI ---------------------------------------------------------

@pytest.fixture
def traced_run_dir(tmp_path):
    store = ArtifactStore(root=tmp_path)
    stored = run_to_store(
        "fig9",
        overrides=TINY_FIG9,
        ctx=RunContext(trace="jsonl"),
        store=store,
        run_id="r1",
    )
    return tmp_path, stored


def test_cli_list_and_show(traced_run_dir, capsys):
    root, stored = traced_run_dir
    assert trace_cli(["list", "--runs-dir", str(root)]) == 0
    listing = capsys.readouterr().out
    assert derive_trace_id("fig9", "r1") in listing
    assert "fig9" in listing

    assert trace_cli(["show", "--runs-dir", str(root)]) == 0
    tree = capsys.readouterr().out
    assert "run" in tree and "item:" in tree


def test_cli_spans_filters(traced_run_dir, capsys):
    root, stored = traced_run_dir
    assert (
        trace_cli(
            ["spans", "--runs-dir", str(root), "--name", "item:", "--kind",
             "span", "--json"]
        )
        == 0
    )
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines and all(line["name"].startswith("item:") for line in lines)
    assert len(lines) == len(stored.records)


def test_cli_slowest(traced_run_dir, capsys):
    root, _ = traced_run_dir
    assert trace_cli(["slowest", "--runs-dir", str(root), "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "ms" in out


def test_cli_missing_trace_is_a_clean_error(tmp_path, capsys):
    assert trace_cli(["list", "--runs-dir", str(tmp_path)]) == 2
    assert "no trace" in capsys.readouterr().err


def test_default_trace_path_picks_newest(tmp_path):
    old = tmp_path / "fig9" / "a" / "trace.jsonl"
    new = tmp_path / "fig9" / "b" / "trace.jsonl"
    old.parent.mkdir(parents=True)
    new.parent.mkdir(parents=True)
    old.write_text("")
    new.write_text("")
    import os

    os.utime(old, (1, 1))
    os.utime(new, (2, 2))
    assert default_trace_path(str(tmp_path)) == new
    with pytest.raises(TraceQueryError):
        default_trace_path(str(tmp_path / "empty"))


# --- Fig. 10 / Fig. 11 plan through the registry seam -------------------

@pytest.mark.parametrize(
    "scenario, overrides, schemes",
    [
        (
            "fig10",
            {"switch_counts": [30], "cutoff": 30.0, "runs_per_size": 1},
            {"chronus", "or", "opt"},
        ),
        (
            "fig11",
            {"switch_count": 30, "instances": 2, "opt_budget": 600.0, "opt_node_budget": 2000},
            {"chronus", "opt"},
        ),
    ],
)
def test_timing_and_makespan_scenarios_emit_plan_spans(tmp_path, scenario, overrides, schemes):
    """Their items used to call ``_plan`` (or the solver) directly and
    bypass the ``plan`` span every other scenario's planning shows up in."""
    stored = run_to_store(
        scenario,
        overrides=overrides,
        ctx=RunContext(trace="jsonl"),
        store=ArtifactStore(root=tmp_path),
        run_id="r1",
    )
    trace = read_trace(stored.handle.directory / "trace.jsonl")
    items = {r.span_id for r in trace if r.name.startswith("item:")}
    plans = [r for r in trace if r.kind == "span" and r.name == "plan"]
    assert {r.attributes["scheme"] for r in plans} == schemes
    assert len(plans) == len(schemes) * len(stored.records)
    for record in plans:
        assert record.parent_id in items
        assert {"feasible", "makespan"} <= set(record.attributes)


# --- per-switch evidence from the one executor --------------------------

def _applies_by_item(stored):
    """``apply`` events of a traced run, grouped under their item span."""
    trace = read_trace(stored.handle.directory / "trace.jsonl")
    grouped = {}
    for record in trace:
        if record.kind == "event" and record.name == "apply":
            assert {"switch", "planned", "applied"} <= set(record.attributes)
            grouped.setdefault(record.parent_id, []).append(record.attributes["switch"])
    return grouped


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        ("faults", {"severities": [0.0], "instances_per_point": 1}),
        ("fig6", {"duration": 20.0}),
    ],
)
def test_executed_items_carry_one_apply_per_applied_switch(tmp_path, scenario, overrides):
    """Every executed plan leaves per-switch evidence, whichever strategy
    ran it -- the faults ablation used to emit none (only the deleted plain
    executors said ``apply``)."""
    stored = run_to_store(
        scenario,
        overrides=overrides,
        ctx=RunContext(trace="jsonl"),
        store=ArtifactStore(root=tmp_path),
        run_id="r1",
    )
    applies = _applies_by_item(stored)
    assert {r["scheme"] for r in stored.records} == {"chronus", "or", "tp"}
    for record in stored.records:
        if scenario == "faults":
            instance = mixed_instance(8, record["seed"])
        else:
            instance = fig6._instance(fig6.SCENARIO.defaults)
        expected = [str(node) for node in instance.switches_to_update]
        if record["scheme"] == "tp":
            # Shadow installs on the new path and the destination, then the flip.
            expected = [str(node) for node in instance.new_config]
            expected += [str(instance.destination), str(instance.source)]
        assert sorted(applies[record["trace"]["span_id"]]) == sorted(expected)


# --- service intents: one subtree per request ---------------------------

SMALL_CELL = {"cells": 1, "pods": 4, "pod_size": 6, "requests": 12}
#: tests/test_trace_goldens.py's burst-shaped cell: its intents interleave.
BURST_CELL = {
    "cells": 1,
    "pods": 8,
    "pod_size": 6,
    "requests": 40,
    "mean_interarrival": 0.25,
    "planners": 4,
}


def _traced_cell(tmp_path, overrides, label="cell"):
    stored = run_to_store(
        "service",
        overrides=overrides,
        ctx=RunContext(trace="jsonl"),
        store=ArtifactStore(root=tmp_path / label),
        run_id="r1",
    )
    (record,) = stored.records
    return record, read_trace(stored.handle.directory / "trace.jsonl")


def _request_of(record, by_id):
    """The ``service.request`` spans on ``record``'s ancestor chain."""
    return [s for s in ancestors(record, by_id) if s.name == "service.request"]


def _applies_under_execute(trace):
    """``{request id: [switch, ...]}`` from each request's ``execute`` span."""
    by_id = {r.span_id: r for r in trace if r.kind == "span"}
    applied = {}
    for record in trace:
        if record.kind == "event" and record.name == "apply":
            execute = by_id[record.parent_id]
            assert execute.name == "execute"
            (request,) = _request_of(record, by_id)
            applied.setdefault(request.attributes["request"], []).append(
                record.attributes["switch"]
            )
    return applied


def test_traced_service_cell_carries_one_apply_per_applied_switch(tmp_path):
    """Each completed request's ``execute`` span holds one ``apply`` per
    switch of that request -- attributable, where the flat tape only had a
    cell-wide total."""
    record, trace = _traced_cell(tmp_path, SMALL_CELL)
    completed = [r for r in record["requests"] if r["status"] == "completed"]
    assert completed and record["summary"]["aborted"] == 0
    applied = _applies_under_execute(trace)
    assert set(applied) == {r["id"] for r in completed}
    for request in completed:
        assert len(applied[request["id"]]) == request["switches"]


def test_interleaved_intents_nest_under_their_own_request(tmp_path):
    record, trace = _traced_cell(tmp_path, BURST_CELL)
    by_id = {r.span_id: r for r in trace if r.kind == "span"}
    (cell,) = [r for r in trace if r.name == "item:cell0"]
    requests = [r for r in trace if r.name == "service.request"]

    # Exactly one request span per request, each directly under the cell,
    # carrying the request's outcome and its virtual-clock stamps.
    assert sorted(r.attributes["request"] for r in requests) == [
        entry["id"] for entry in record["requests"]
    ]
    outcome = {entry["id"]: entry for entry in record["requests"]}
    for span in requests:
        entry = outcome[span.attributes["request"]]
        assert span.parent_id == cell.span_id
        assert span.attributes["tenant"] == entry["tenant"]
        assert span.attributes["status"] == entry["status"]
        assert span.attributes["arrival"] == entry["arrival"]
        assert round(
            span.attributes["finished_at"] - span.attributes["arrival"], 6
        ) == round(entry["latency"], 6)

    # The intents really interleave: two executions overlap in virtual time.
    windows = [
        (r.attributes["started_at"], r.attributes["finished_at"])
        for r in requests
        if "started_at" in r.attributes
    ]
    assert any(
        sum(1 for a, b in windows if a <= start < b) >= 2 for start, _ in windows
    )

    # No span opened after its parent had closed (aggregates carry no interval).
    for span in by_id.values():
        parent = by_id.get(span.parent_id)
        if span.end_time is not None and parent is not None:
            assert span.start_time <= parent.end_time, span.name

    # Every plan / verify / execute span and every apply reaches its own
    # request and never another's.
    below = [
        r
        for r in trace
        if r.name in ("plan", "validate.verifier.verify", "execute", "apply")
    ]
    assert below
    for child in below:
        assert len(_request_of(child, by_id)) == 1, child.name
    planned = {
        _request_of(r, by_id)[0].attributes["request"]
        for r in trace
        if r.name == "plan"
    }
    assert planned == {
        entry["id"]
        for entry in record["requests"]
        if entry["status"] in ("completed", "aborted")
    }

    # A merged-away request names the request that took its place.
    superseded = [r for r in requests if r.attributes["status"] == "superseded"]
    assert superseded
    for span in superseded:
        winner = outcome[span.attributes["superseded_by"]]
        assert winner["tenant"] == span.attributes["tenant"]
        assert winner["batch"] == span.attributes["batch"]


def test_traced_service_cell_is_deterministic(tmp_path):
    _, first = _traced_cell(tmp_path, BURST_CELL, "first")
    _, second = _traced_cell(tmp_path, BURST_CELL, "second")
    assert [r.stable_view() for r in first] == [r.stable_view() for r in second]


def test_cli_status_filter_returns_the_requests_that_ended_so(tmp_path, capsys):
    # Four queue slots and tight links: some intents are rejected, some abort.
    overrides = dict(BURST_CELL, max_queue=4, capacity=1.0)
    record, _ = _traced_cell(tmp_path, overrides)
    by_status = {}
    for entry in record["requests"]:
        by_status.setdefault(entry["status"], set()).add(entry["id"])
    assert by_status.get("rejected") and by_status.get("aborted")
    for status in ("aborted", "rejected", "superseded"):
        assert (
            trace_cli(
                ["spans", "--runs-dir", str(tmp_path / "cell"), "--status", status, "--json"]
            )
            == 0
        )
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(line["name"] == "service.request" for line in lines)
        assert {line["attributes"]["request"] for line in lines} == by_status.get(
            status, set()
        )


def test_cli_show_prints_one_subtree_per_request(tmp_path, capsys):
    record, _ = _traced_cell(tmp_path, SMALL_CELL)
    assert trace_cli(["show", "--runs-dir", str(tmp_path / "cell")]) == 0
    tree = capsys.readouterr().out.splitlines()
    assert sum("service.request" in line for line in tree) == len(record["requests"])
    depth = {
        name: {len(line) - len(line.lstrip()) for line in tree if line.strip().startswith(name)}
        for name in ("service.request", "plan", "execute", "* apply")
    }
    assert depth["service.request"] == {4}
    assert depth["plan"] == {6} and depth["execute"] == {6}
    assert depth["* apply"] == {8}


def test_cli_profile_renders_the_aggregate_view(tmp_path, capsys):
    run_to_store(
        "fig7",
        overrides=dict(TINY_FIG7, instances_per_size=1),
        ctx=RunContext(trace="jsonl"),
        store=ArtifactStore(root=tmp_path),
        run_id="r1",
    )
    assert trace_cli(["profile", "--runs-dir", str(tmp_path), "--min-ms", "0"]) == 0
    out = capsys.readouterr().out
    assert "span tree" in out and "greedy" in out and "opt.search" in out
    assert "tracker.entry_memo" in out and "% hit" in out


def test_cli_profile_of_a_stored_sweep_has_the_item_table_and_opt_line(tmp_path, capsys):
    from repro.experiments.__main__ import main as experiments_cli

    assert experiments_cli([
        "run", "sweep", "--trace", "jsonl", "--runs-dir", str(tmp_path), "--run-id", "r1",
        "--set", "switch_counts=[9]", "--set", "instances_per_size=3",
        "--set", 'schemes=["chronus","or","opt","tp","aug"]',
        "--set", "opt_node_budget=60", "--set", "or_node_budget=60",
        "--set", "aug_epsilon=1.0", "--set", "verify=true", "--quiet", "--no-report",
    ]) == 0
    path = tmp_path / "sweep" / "r1" / "trace.jsonl"
    capsys.readouterr()
    assert trace_cli(["profile", "--path", str(path)]) == 0
    out = capsys.readouterr().out
    table = out[out.index("sweep items x3:"):].splitlines()
    columns = table[1].split()
    assert sorted(columns[:-2]) == ["aug", "chronus", "opt", "or", "tp"]
    assert columns[-2:] == ["total", "share"]
    assert [line.split()[0] for line in table[2:8]] == [
        "build", "plan", "measure", "verify", "store", "rest"
    ]
    assert any(line.startswith("  opt: proven ") and "/3 (" in line for line in table)
    # The table is the stored tape's: what the launcher prints of its own.
    view = profile_of(read_trace(path))["item_phases"]
    assert view["items"] == 3 and view["store"]["all"] > 0
    assert set(view["plan"]) == {"chronus", "or", "opt", "tp", "aug"}


# --- the current span is task-local -------------------------------------

@pytest.fixture
def session():
    with TraceSession(scenario="unit", run_id="r1") as live:
        yield live


def _by_name(tape):
    spans = {r.name: r for r in tape if r.kind == "span"}
    assert len(spans) == sum(1 for r in tape if r.kind == "span")
    return spans


def test_interleaved_coroutines_keep_their_own_parents(session):
    """Two coroutines sharing one list-typed stack became each other's
    parents (``B.plan`` under ``A.plan``, ``A.plan`` under ``B``) and left
    closed ids behind; a context variable gives each task its own."""

    async def intent(name, gate_in, gate_out):
        with recorder.span(name):
            gate_out.set()
            await gate_in.wait()
            with recorder.span(f"{name}.plan"):
                await asyncio.sleep(0)
            await asyncio.sleep(0)

    async def cell():
        with recorder.span("cell"):
            a_open, b_open = asyncio.Event(), asyncio.Event()
            await asyncio.gather(
                intent("A", b_open, a_open), intent("B", a_open, b_open)
            )
            with recorder.span("sibling"):
                pass
        assert recorder.current().name == "run"

    asyncio.run(cell())
    session.flush()
    spans = _by_name(session.tape)
    assert spans["A.plan"].parent_id == spans["A"].span_id
    assert spans["B.plan"].parent_id == spans["B"].span_id
    assert spans["A"].parent_id == spans["cell"].span_id
    assert spans["B"].parent_id == spans["cell"].span_id
    assert spans["sibling"].parent_id == spans["cell"].span_id


def test_out_of_order_close_leaves_nobody_a_closed_parent(session):
    root = recorder.current()
    outer = recorder.span("outer").__enter__()
    inner = recorder.span("inner").__enter__()
    outer.close()  # out of order: ``inner`` is still open and current
    assert recorder.current() is inner
    with recorder.span("under-inner"):
        pass
    inner.__exit__(None, None, None)
    # The context still points at ``outer``, which is closed: skipped.
    assert recorder.current() is root
    with recorder.span("after"):
        pass
    session.flush()
    spans = _by_name(session.tape)
    assert spans["under-inner"].parent_id == spans["inner"].span_id
    assert spans["after"].parent_id == root.span_id


def test_attach_continues_a_span_in_another_task(session):
    """A span opened in one coroutine, made current in another: what the
    service does with a request between its arrival and planner tasks."""
    handles = {}

    async def arrivals():
        for name in ("r0", "r1"):
            handles[name] = recorder.span(name)  # open, current nowhere
            assert recorder.current().name == "run"
            await asyncio.sleep(0)

    async def planner(name):
        with handles[name].attach():
            with recorder.span("plan"):
                await asyncio.sleep(0)
                recorder.current().event("planned", request=name)
        assert recorder.current().name == "run"
        handles[name].close()

    async def main():
        await arrivals()
        await asyncio.gather(planner("r0"), planner("r1"))

    asyncio.run(main())
    session.flush()
    by_id = {r.span_id: r for r in session.tape}
    events = [r for r in session.tape if r.name == "planned"]
    assert len(events) == 2
    for event in events:
        plan = by_id[event.parent_id]
        assert plan.name == "plan"
        assert by_id[plan.parent_id].name == event.attributes["request"]


def test_nothing_is_current_once_the_session_ends():
    with TraceSession(scenario="unit", run_id="r1"):
        with recorder.span("cell"):
            assert recorder.current().name == "cell"
    assert recorder.current() is NULL_SPAN
