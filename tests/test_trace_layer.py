"""The trace layer: ids, sinks, pool-worker merge, query CLI.

The hard guarantees under test:

* run ids never collide (same second, same process) and sort in
  creation order -- fixed-width pid and sequence fields;
* manifests and trace records carry timezone-aware UTC timestamps;
* a JSONL sink and a SQLite sink round-trip identical records;
* a pool run's trace is record-for-record identical to the serial run's
  in its :meth:`TraceRecord.stable_view` projection, and its perf
  spans/counters merge back into the parent registry (nothing is
  silently dropped with ``REPRO_PERF=1`` under the pool);
* tracing is observability-only: records gain exactly the ``trace``
  link field and nothing else, and stay untouched with sinks off.
"""

import json
import re
from datetime import datetime, timedelta

import pytest

import repro.pipeline.store as store_mod
import repro.runtime.parallel as parallel_mod
from repro.experiments import fig6
from repro.experiments.sweep import mixed_instance
from repro.perf import perf
from repro.pipeline.context import RunContext
from repro.pipeline.runner import run_in_memory, run_to_store
from repro.pipeline.store import ArtifactStore, new_run_id
from repro.trace.__main__ import main as trace_cli
from repro.trace.query import TraceQueryError, default_trace_path, read_trace
from repro.trace.record import (
    TraceRecord,
    derive_span_id,
    derive_trace_id,
    utc_now_iso,
)
from repro.trace.recorder import recorder
from repro.trace.sinks import JsonlSink, SqliteSink, open_sink

TINY_FIG9 = {"switch_counts": [20], "instances_per_size": 4}


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Every test starts and ends with idle perf/trace registries."""
    perf.disable()
    perf.reset()
    recorder.deactivate()
    yield
    perf.disable()
    perf.reset()
    recorder.deactivate()


@pytest.fixture
def two_cpus(monkeypatch):
    """Lift the CPU cap so the pool forks on single-core CI boxes too."""
    monkeypatch.setattr(parallel_mod, "available_cpus", lambda: 2)


def pool_ctx(**kwargs) -> RunContext:
    return RunContext(workers=2, serial_threshold_seconds=0, **kwargs)


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


def test_jsonl_and_sqlite_sinks_round_trip_identically(tmp_path):
    records = _sample_records()
    jsonl = JsonlSink(tmp_path / "trace.jsonl")
    sqlite = SqliteSink(tmp_path / "trace.db")
    for record in records:
        jsonl.emit(record)
        sqlite.emit(record)
    jsonl.close()
    sqlite.close()
    from_jsonl = read_trace(tmp_path / "trace.jsonl")
    from_sqlite = read_trace(tmp_path / "trace.db")
    assert from_jsonl == records
    assert from_sqlite == records


def test_open_sink_specs(tmp_path):
    assert isinstance(open_sink("jsonl", directory=tmp_path), JsonlSink)
    assert isinstance(open_sink("sqlite", directory=tmp_path), SqliteSink)
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


def test_serial_and_pool_traces_are_lockstep(tmp_path, two_cpus):
    serial_stored, serial_trace = _traced_run(
        tmp_path, "serial", RunContext(trace="jsonl")
    )
    pool_stored, pool_trace = _traced_run(tmp_path, "pool", pool_ctx(trace="jsonl"))

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
    assert not perf.enabled and not recorder.enabled
    _traced_run(tmp_path, "restore", RunContext(trace="jsonl"))
    assert not perf.enabled, "TraceSession must restore the perf flag"
    assert not recorder.enabled, "TraceSession must release the recorder"


# --- pool perf merge (satellite: REPRO_PERF=1 under the pool) ----------

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
    perf.reset()
    run_in_memory("fig7", overrides=TINY_FIG7, ctx=ctx)
    snapshot = perf.snapshot()
    return {
        path: stat["calls"] for path, stat in snapshot["spans"].items()
    }, dict(snapshot["counters"])


def test_pool_perf_spans_merge_back(two_cpus):
    serial_calls, serial_counters = _profiled_counts(RunContext(profile=True))
    pool_calls, pool_counters = _profiled_counts(pool_ctx(profile=True))
    # Without the worker merge the pool report only held the parent's
    # own spans; now every per-item span and counter comes back.
    assert pool_calls == serial_calls
    assert pool_counters == serial_counters
    assert any(path.startswith("pipeline.fig7.") for path in pool_calls)


# --- resume appends to the same trace ----------------------------------

def test_resumed_run_extends_the_same_trace(tmp_path):
    from repro.pipeline.runner import RunInterrupted

    store = ArtifactStore(root=tmp_path)
    with pytest.raises(RunInterrupted):
        run_to_store(
            "fig9",
            overrides=TINY_FIG9,
            ctx=RunContext(trace="jsonl"),
            store=store,
            run_id="r1",
            stop_after=2,
        )
    resumed = run_to_store(
        "fig9",
        ctx=RunContext(trace="jsonl"),
        store=store,
        run_id="r1",
        resume=True,
    )
    trace = read_trace(resumed.handle.directory / "trace.jsonl")
    trace_id = derive_trace_id("fig9", "r1")
    assert {r.trace_id for r in trace} == {trace_id}
    item_spans = [r for r in trace if r.name.startswith("item:")]
    keys = {r.attributes["key"] for r in item_spans}
    assert keys == {str(r["key"]) for r in resumed.records}


# --- query CLI ---------------------------------------------------------

@pytest.fixture
def traced_run_dir(tmp_path):
    store = ArtifactStore(root=tmp_path)
    stored = run_to_store(
        "fig9",
        overrides=TINY_FIG9,
        ctx=RunContext(trace="sqlite"),
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
    new = tmp_path / "fig9" / "b" / "trace.db"
    old.parent.mkdir(parents=True)
    new.parent.mkdir(parents=True)
    old.write_text("")
    new.write_bytes(b"")
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
        ("fig11", {"switch_count": 30, "instances": 2, "opt_budget": 30.0}, {"chronus", "opt"}),
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


def test_traced_service_cell_carries_one_apply_per_applied_switch(tmp_path):
    stored = run_to_store(
        "service",
        overrides={"cells": 1, "pods": 4, "pod_size": 6, "requests": 12},
        ctx=RunContext(trace="jsonl"),
        store=ArtifactStore(root=tmp_path),
        run_id="r1",
    )
    (record,) = stored.records
    completed = [r for r in record["requests"] if r["status"] == "completed"]
    assert completed and record["summary"]["aborted"] == 0
    (applies,) = _applies_by_item(stored).values()
    assert len(applies) == sum(r["switches"] for r in completed)
