"""The scenario pipeline: registry, store, executor, resume, CLI.

The hard guarantee under test: an interrupted-after-k-then-resumed run
writes a ``records.jsonl`` **byte-identical** to an uninterrupted run,
and serial/parallel/in-memory execution all see the same records.
"""

import json
import os

import pytest

import repro.pipeline.runner as runner
import repro.runtime.parallel as parallel
from repro.experiments.__main__ import main as cli_main
from repro.experiments.sweep import sweep_seed
from repro.pipeline import (
    ArtifactStore,
    RunContext,
    RunInterrupted,
    UnknownScenarioError,
    get_scenario,
    report_from_store,
    run_in_memory,
    run_to_store,
)
from repro.pipeline.scenario import all_scenarios
from repro.pipeline.store import StoreError, canonical_json
from repro.updates.registry import UnknownSchemeError

TINY_FIG9 = {"switch_counts": [20, 30], "instances_per_size": 2}

#: Deterministic fig7 grid: node budgets bound the search, wall-clock
#: budgets are sized to never bind, so records are machine-independent.
TINY_FIG7 = {
    "switch_counts": [10],
    "instances_per_size": 4,
    "opt_budget": 60.0,
    "or_budget": 60.0,
    "opt_node_budget": 20_000,
    "or_node_budget": 20_000,
}


# --- registry ----------------------------------------------------------

def test_registry_has_every_experiment():
    names = [scenario.name for scenario in all_scenarios()]
    assert set(names) >= {
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "table2",
        "walkthrough",
        "faults",
        "sweep",
        "gate",
        "service",
    }
    assert len(names) >= 12


def test_unknown_scenario_lists_valid_names():
    with pytest.raises(UnknownScenarioError) as excinfo:
        get_scenario("fig1")
    message = str(excinfo.value)
    assert "fig1" in message
    for name in ("fig10", "fig11", "table2"):
        assert name in message


def test_params_with_rejects_unknown_override():
    scenario = get_scenario("fig9")
    with pytest.raises(ValueError, match="unknown parameter"):
        scenario.params_with({"no_such_knob": 1})


def test_paper_preset_requires_paper_params():
    scenario = get_scenario("table2")
    with pytest.raises(ValueError, match="paper-scale preset"):
        scenario.params_with(paper=True)


def test_fig10_greedy_preset_targets_paper_sizes():
    # `run --paper fig10 --set schemes=chronus`: Chronus alone at the paper's
    # 1K-6K sizes under the 600 s cutoff (the affordable slice of the preset).
    params = get_scenario("fig10").params_with({"schemes": ["chronus"]}, paper=True)
    assert tuple(params["schemes"]) == ("chronus",)
    assert tuple(params["switch_counts"]) == (1000, 2000, 3000, 4000, 5000, 6000)
    assert params["cutoff"] == 600.0
    assert params["runs_per_size"] == 3


def test_every_scenario_expands_a_unique_keyed_grid():
    for scenario in all_scenarios():
        name = scenario.name
        items = list(scenario.items(scenario.params_with()))
        assert items, name
        keys = [item["key"] for item in items]
        assert len(set(keys)) == len(keys), name


# --- the sweep_seed contract ------------------------------------------

def test_sweep_seed_pinned_values():
    # Part of the harness contract: figures cite these exact integers.
    assert sweep_seed(0, 10, 0) == 100_070
    assert sweep_seed(1, 20, 3) == 1_200_146
    assert sweep_seed(7, 8, 2) == 7_080_079


def test_sweep_items_follow_seed_contract():
    scenario = get_scenario("fig7")
    params = scenario.params_with(
        {"switch_counts": [10, 20], "instances_per_size": 2, "base_seed": 1}
    )
    items = list(scenario.items(params))
    assert [i["key"] for i in items] == ["n10-i0", "n10-i1", "n20-i0", "n20-i1"]
    assert [i["seed"] for i in items] == [
        sweep_seed(1, 10, 0),
        sweep_seed(1, 10, 1),
        sweep_seed(1, 20, 0),
        sweep_seed(1, 20, 1),
    ]


# --- artifact store ----------------------------------------------------

def test_store_roundtrip_and_manifest(tmp_path):
    store = ArtifactStore(root=tmp_path)
    handle = store.create("fig9", {"switch_counts": (20,)}, run_id="r1")
    handle.append({"key": "a", "value": 1})
    handle.append({"key": "b", "value": [1, 2]})
    handle.finish(status="complete", records=2)

    reopened = store.open("fig9", "r1")
    assert reopened.params == {"switch_counts": [20]}  # tuple -> list once
    assert reopened.load_records() == [
        {"key": "a", "value": 1},
        {"key": "b", "value": [1, 2]},
    ]
    assert [record["key"] for record in reopened.load_records()] == ["a", "b"]
    manifest = reopened.manifest
    assert manifest["status"] == "complete"
    assert manifest["records"] == 2
    assert manifest["scenario"] == "fig9"
    assert len(manifest["config_hash"]) == 16


def test_manifest_names_the_checkout_not_the_working_directory(tmp_path, monkeypatch):
    # Regression: the revision was read in the caller's working directory,
    # so a run started outside the checkout stamped null (and one started
    # in another repository stamped that repository's HEAD).
    from pathlib import Path

    from repro.pipeline.store import git_revision

    checkout = git_revision(Path(__file__).resolve().parent)
    if checkout is None:
        pytest.skip("the tests do not run from a git checkout")
    monkeypatch.chdir(tmp_path)
    handle = ArtifactStore(root=tmp_path / "runs").create("fig9", {}, run_id="r1")
    assert handle.manifest["git_rev"] == checkout
    assert json.loads(handle.manifest_path.read_text())["git_rev"] == checkout


def test_store_open_defaults_to_latest(tmp_path):
    store = ArtifactStore(root=tmp_path)
    store.create("fig9", {}, run_id="20240101T000000-1")
    store.create("fig9", {}, run_id="20240201T000000-1")
    assert store.open("fig9").run_id == "20240201T000000-1"
    assert store.run_ids("fig9") == [
        "20240101T000000-1",
        "20240201T000000-1",
    ]


def test_store_refuses_duplicate_run_id(tmp_path):
    store = ArtifactStore(root=tmp_path)
    store.create("fig9", {}, run_id="r1")
    with pytest.raises(StoreError, match="already exists"):
        store.create("fig9", {}, run_id="r1")


def test_store_create_claims_directory_atomically(tmp_path):
    # Regression (TOCTOU): a rival worker that grabbed the directory but
    # has not written its manifest yet sits exactly in the old
    # exists-check/mkdir window.  create() must lose cleanly instead of
    # sharing the directory.
    store = ArtifactStore(root=tmp_path)
    store.run_directory("fig9", "r1").mkdir(parents=True)
    with pytest.raises(StoreError, match="already exists"):
        store.create("fig9", {}, run_id="r1")


def _racing_create(args):
    root, run_id = args
    store = ArtifactStore(root=root)
    try:
        store.create("fig9", {"who": "racer"}, run_id=run_id)
        return "won"
    except StoreError:
        return "lost"


def test_concurrent_create_of_same_run_id_has_one_winner(tmp_path):
    import multiprocessing

    from repro.runtime import fork_available

    if not fork_available():
        pytest.skip("fork start method unavailable")
    context = multiprocessing.get_context("fork")
    with context.Pool(4) as pool:
        outcomes = pool.map(_racing_create, [(tmp_path, "raced")] * 8)
    assert outcomes.count("won") == 1
    assert outcomes.count("lost") == 7
    assert ArtifactStore(root=tmp_path).open("fig9", "raced").run_id == "raced"


def test_partial_trailing_line_is_truncated(tmp_path):
    store = ArtifactStore(root=tmp_path)
    handle = store.create("fig9", {}, run_id="r1")
    handle.append({"key": "a"})
    handle._close_records()
    with open(handle.records_path, "a") as f:
        f.write('{"key":"torn')  # died mid-write: no trailing newline
    assert handle.load_records() == [{"key": "a"}]
    # The torn bytes are gone; the next append starts on a clean line.
    assert handle.records_path.read_bytes() == b'{"key":"a"}\n'


def test_corrupt_interior_line_is_an_error(tmp_path):
    store = ArtifactStore(root=tmp_path)
    handle = store.create("fig9", {}, run_id="r1")
    handle.records_path.write_text('{"key":"a"}\nnot json\n{"key":"b"}\n')
    with pytest.raises(StoreError, match="corrupt record"):
        handle.load_records()


# --- executor: resume and determinism ---------------------------------

def _assert_cut_and_resume_is_byte_identical(tmp_path, workers):
    store = ArtifactStore(root=tmp_path)
    full = run_to_store("fig9", TINY_FIG9, store=store, run_id="full")
    assert full.summary.emitted == 4
    full_lines = full.handle.records_path.read_bytes().splitlines(keepends=True)

    ctx = RunContext(workers=workers)
    with pytest.raises(RunInterrupted):
        run_to_store(
            "fig9", TINY_FIG9, ctx=ctx, store=store, run_id="cut", stop_after=2
        )
    cut = store.open("fig9", "cut")
    assert cut.manifest["status"] == "running"  # what a kill leaves behind
    assert cut.records_path.read_bytes() == b"".join(full_lines[:2])
    with open(cut.records_path, "a") as f:
        f.write('{"key":"torn')  # and it died mid-write

    resumed = run_to_store("fig9", ctx=ctx, store=store, run_id="cut", resume=True)
    assert resumed.summary.skipped == 2
    assert resumed.summary.emitted == 2
    assert (
        full.handle.records_path.read_bytes()
        == resumed.handle.records_path.read_bytes()
    )
    assert resumed.handle.manifest["status"] == "complete"
    assert (
        resumed.handle.manifest["config_hash"]
        == full.handle.manifest["config_hash"]
    )


def test_interrupted_then_resumed_is_byte_identical(tmp_path):
    _assert_cut_and_resume_is_byte_identical(tmp_path, workers=1)


def test_interrupted_mid_pool_then_resumed_is_byte_identical(tmp_path, two_cpus):
    # The cut lands while the pool still runs later items: the store holds
    # exactly the prefix, and the resume (its own pool) finishes it.
    _assert_cut_and_resume_is_byte_identical(tmp_path, workers=2)


def test_a_run_starts_one_pool(tmp_path, two_cpus, monkeypatch):
    starts = []
    fork_pool = parallel._fork_pool

    def counting(workers, *args):
        starts.append(workers)
        return fork_pool(workers, *args)

    monkeypatch.setattr(parallel, "_fork_pool", counting)
    overrides = dict(TINY_FIG9, instances_per_size=5)
    stored = run_to_store(
        "fig9", overrides, ctx=RunContext(workers=2), store=ArtifactStore(root=tmp_path)
    )
    assert len(stored.records) == 10
    assert starts == [2]


def test_a_dead_worker_leaves_the_records_whole(tmp_path, two_cpus, monkeypatch):
    scenario = get_scenario("fig9")
    keys = [str(item["key"]) for item in scenario.items(scenario.params_with(TINY_FIG9))]
    parent = os.getpid()
    evaluate = runner.evaluate_task
    in_parent = []

    def dies_in_a_worker(task):
        key = str(task.item["key"])
        if os.getpid() == parent:
            in_parent.append(key)
        elif key == keys[2]:
            os._exit(1)
        return evaluate(task)

    store = ArtifactStore(root=tmp_path)
    serial = run_to_store("fig9", TINY_FIG9, store=store, run_id="serial")
    monkeypatch.setattr(runner, "evaluate_task", dies_in_a_worker)
    pooled = run_to_store(
        "fig9", TINY_FIG9, ctx=RunContext(workers=2), store=store, run_id="pool"
    )
    assert keys[2] in in_parent  # the pool broke and the rest ran here
    assert pooled.handle.manifest["status"] == "complete"
    assert (
        pooled.handle.records_path.read_bytes()
        == serial.handle.records_path.read_bytes()
    )


def test_resume_rejects_changed_grid(tmp_path):
    store = ArtifactStore(root=tmp_path)
    handle = store.create("fig9", get_scenario("fig9").params_with(TINY_FIG9))
    handle.append({"key": "not-in-any-grid"})
    handle._close_records()
    with pytest.raises(ValueError, match="absent from the item grid"):
        run_to_store("fig9", store=store, run_id=handle.run_id, resume=True)


#: Settings that change what a record holds, each with the mark it leaves
#: on every record: a resume must replay them from the stored params.
REPLAYED = {
    "sweep": (
        dict(TINY_FIG7, instances_per_size=3, verify=True),
        lambda record: all(
            outcome["verifier_agrees"] is True
            for outcome in record["outcomes"].values()
        ),
    ),
    "fig6": (
        {"fault_severity": 1.0},
        lambda record: {"completed", "aborted", "retries"} <= set(record),
    ),
}


@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_resume_replays_the_params(tmp_path, name, two_cpus):
    overrides, marked = REPLAYED[name]
    store = ArtifactStore(root=tmp_path)
    full = run_to_store(name, overrides, store=store, run_id="full")
    for workers in (1, 2):
        ctx = RunContext(workers=workers)
        run_id = f"cut-w{workers}"
        with pytest.raises(RunInterrupted):
            run_to_store(name, overrides, ctx=ctx, store=store, run_id=run_id, stop_after=1)
        with open(store.open(name, run_id).records_path, "a") as f:
            f.write('{"key":"torn')  # killed mid-write
        resumed = run_to_store(name, ctx=ctx, store=store, run_id=run_id, resume=True)
        assert resumed.summary.skipped == 1
        assert (
            resumed.handle.records_path.read_bytes()
            == full.handle.records_path.read_bytes()
        )
        assert resumed.handle.manifest["status"] == "complete"
        assert resumed.handle.manifest["config_hash"] == full.handle.manifest["config_hash"]
        assert len(resumed.records) > 1 and all(map(marked, resumed.records))
        params = resumed.handle.manifest["params"]
        assert {key: params[key] for key in overrides} == json.loads(canonical_json(overrides))


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"workload": "mixed"}, ValueError),
        ({"schemes": ["chronus", "chrnous"]}, UnknownSchemeError),
    ],
)
def test_a_refused_grid_leaves_no_run(tmp_path, overrides, error):
    # The grid is expanded and the schemes resolved before the run
    # directory exists: no empty `running` run for report/resume to pick.
    store = ArtifactStore(tmp_path)
    with pytest.raises(error):
        run_to_store("sweep", overrides, store=store)
    assert store.run_ids("sweep") == []


@pytest.mark.parametrize("spec", ["bogus", "sqlite", "console"])
def test_a_refused_trace_spec_leaves_no_run(tmp_path, spec):
    # The sink is opened before the run directory exists, as the grid is.
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="jsonl"):
        run_to_store("fig9", TINY_FIG9, ctx=RunContext(trace=spec), store=store)
    assert cli_main(["run", "fig9", "--trace", spec, "--runs-dir", str(tmp_path)]) == 2
    assert store.run_ids("fig9") == []


def test_resume_refuses_a_run_that_predates_a_param(tmp_path):
    # A stored run lacking a declared param (fig6 before fault_severity),
    # or carrying one the scenario no longer declares (a sweep of the
    # removed ``permutation`` workload): either resume would append records
    # of another configuration, so both are refused before anything is
    # written, by the library and by the CLI.
    store = ArtifactStore(root=tmp_path)
    fig6 = get_scenario("fig6").params_with()
    del fig6["fault_severity"]
    sweep = dict(get_scenario("sweep").params_with(), workload="permutation")
    for name, params in (("fig6", fig6), ("sweep", sweep)):
        handle = store.create(name, params)
        handle.finish(status="interrupted", records=0)
        manifest = handle.manifest_path.read_bytes()
        with pytest.raises(ValueError, match="predates"):
            run_to_store(name, store=store, run_id=handle.run_id, resume=True)
        args = ["resume", name, "--runs-dir", str(tmp_path), "--run-id", handle.run_id]
        assert cli_main(args) == 2
        assert store.open(name, handle.run_id).load_records() == []
        assert handle.manifest_path.read_bytes() == manifest


def test_serial_and_parallel_records_are_identical(tmp_path):
    store = ArtifactStore(root=tmp_path)
    run_to_store("fig7", TINY_FIG7, store=store, run_id="serial")
    run_to_store(
        "fig7", TINY_FIG7, ctx=RunContext(workers=2), store=store, run_id="par"
    )
    serial = store.open("fig7", "serial").records_path.read_bytes()
    parallel = store.open("fig7", "par").records_path.read_bytes()
    assert serial == parallel


def test_in_memory_matches_stored_aggregation(tmp_path):
    store = ArtifactStore(root=tmp_path)
    stored = run_to_store("fig9", TINY_FIG9, store=store, run_id="r1")
    in_memory = run_in_memory("fig9", TINY_FIG9)
    reported = report_from_store("fig9", store=store, run_id="r1")
    assert stored.aggregate().render() == in_memory.render() == reported.render()


def test_enough_predicate_stops_fig11_early(tmp_path):
    # OPT is bounded by nodes, not by waiting for a wall clock to expire.
    overrides = {
        "switch_count": 40,
        "instances": 2,
        "opt_budget": 600.0,
        "opt_node_budget": 2000,
    }
    store = ArtifactStore(root=tmp_path)
    stored = run_to_store("fig11", overrides, store=store, run_id="r1")
    grid = len(list(get_scenario("fig11").items(stored.params)))
    assert stored.summary.satisfied_early
    assert len(stored.records) < grid
    result = stored.aggregate()
    assert len(result.chronus_times) == 2


def test_records_are_canonical_json_lines(tmp_path):
    store = ArtifactStore(root=tmp_path)
    stored = run_to_store("fig9", TINY_FIG9, store=store, run_id="r1")
    lines = stored.handle.records_path.read_text().splitlines()
    for line, record in zip(lines, stored.records):
        assert line == canonical_json(json.loads(line))
        assert json.loads(line) == record


# --- the unified CLI (in-process) -------------------------------------

def test_cli_rejects_inexact_name(capsys):
    assert cli_main(["run", "fig1"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'fig1'" in err
    assert "fig10" in err and "fig11" in err


def test_cli_list_names_every_scenario(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for scenario in all_scenarios():
        assert scenario.name in out


def test_cli_run_interrupt_resume_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    base = [
        "fig9",
        "--run-id",
        "r1",
        "--set",
        "switch_counts=[20]",
        "--set",
        "instances_per_size=3",
        "--quiet",
        "--no-report",
    ]
    assert cli_main(["run", *base, "--stop-after", "1"]) == 3
    assert cli_main(["resume", "fig9", "--run-id", "r1", "--quiet", "--no-report"]) == 0
    capsys.readouterr()
    assert cli_main(["report", "fig9", "--run-id", "r1"]) == 0
    assert "Fig. 9" in capsys.readouterr().out

    manifest = json.loads((tmp_path / "fig9" / "r1" / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["records"] == 3
    assert manifest["params"]["switch_counts"] == [20]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "sweep", "--verify"],
        ["run", "fig6", "--fault-severity", "1.0"],
        ["run", "service", "--set", "fault_severity=1.0"],
        ["run", "faults", "--set", "fault_severity=1.0"],
    ],
)
def test_cli_what_a_run_computes_is_a_param(argv, tmp_path, capsys, monkeypatch):
    # `--set verify=true` / `--set fault_severity=S` are the one switch; a
    # scenario without the param refuses it before any run directory exists.
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    try:
        code = cli_main([*argv, "--quiet"])
    except SystemExit as exit_:  # argparse: unrecognised argument
        code = exit_.code
    assert code == 2
    assert not any(tmp_path.iterdir())


def test_cli_report_without_runs_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    assert cli_main(["report", "fig9"]) == 2
    assert "no runs" in capsys.readouterr().err
