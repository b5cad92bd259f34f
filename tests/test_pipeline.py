"""The scenario pipeline: registry, store, executor, resume, CLI.

The hard guarantee under test: an interrupted-after-k-then-resumed run
writes a ``records.jsonl`` **byte-identical** to an uninterrupted run,
and serial/parallel/in-memory execution all see the same records.
"""

import json

import pytest

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
    scenario_names,
)
from repro.pipeline.store import StoreError, canonical_json

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
    names = scenario_names()
    assert set(names) >= {
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig10-greedy",
        "fig11",
        "table2",
        "walkthrough",
        "faults",
        "sweep",
    }
    assert len(names) >= 11


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
    # `run --paper fig10-greedy`: Chronus alone at the paper's 1K-6K sizes
    # under the 600 s cutoff (the affordable slice of the Fig. 10 preset).
    params = get_scenario("fig10-greedy").params_with(paper=True)
    assert tuple(params["schemes"]) == ("chronus",)
    assert tuple(params["switch_counts"]) == (1000, 2000, 3000, 4000, 5000, 6000)
    assert params["cutoff"] == 600.0
    assert params["runs_per_size"] == 3


def test_every_scenario_expands_a_unique_keyed_grid():
    for name in scenario_names():
        scenario = get_scenario(name)
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
    assert reopened.completed_keys() == ["a", "b"]
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

def test_interrupted_then_resumed_is_byte_identical(tmp_path):
    store = ArtifactStore(root=tmp_path)
    full = run_to_store("fig9", TINY_FIG9, store=store, run_id="full")
    assert full.summary.emitted == 4

    with pytest.raises(RunInterrupted):
        run_to_store("fig9", TINY_FIG9, store=store, run_id="cut", stop_after=2)
    cut = store.open("fig9", "cut")
    assert cut.manifest["status"] == "running"  # what a kill leaves behind
    with open(cut.records_path, "a") as f:
        f.write('{"key":"torn')  # and it died mid-write

    resumed = run_to_store("fig9", store=store, run_id="cut", resume=True)
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


def test_resume_rejects_changed_grid(tmp_path):
    store = ArtifactStore(root=tmp_path)
    handle = store.create("fig9", get_scenario("fig9").params_with(TINY_FIG9))
    handle.append({"key": "not-in-any-grid"})
    handle._close_records()
    with pytest.raises(ValueError, match="absent from the item grid"):
        run_to_store("fig9", store=store, run_id=handle.run_id, resume=True)


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
    for name in scenario_names():
        assert name in out


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


def test_cli_report_without_runs_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    assert cli_main(["report", "fig9"]) == 2
    assert "no runs" in capsys.readouterr().err
