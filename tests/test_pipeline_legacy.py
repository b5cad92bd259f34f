"""Deprecation path: every legacy entry point equals its scenario.

The legacy ``run_*`` functions and script loops must keep producing the
same numbers as their scenario-registry counterparts on seeded small
grids.  All of them delegate to the pipeline, so these are delegation
pins: they catch a wrapper that drops or renames a parameter.
"""

from dataclasses import asdict

import pytest

from repro.experiments import (
    faults_ablation,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    table2,
    walkthrough,
)
from repro.pipeline import ArtifactStore, run_in_memory, run_to_store


def stored_render(name, overrides, tmp_path):
    """Run via the store and report from the records alone."""
    store = ArtifactStore(root=tmp_path)
    stored = run_to_store(name, overrides, store=store, run_id="legacy-eq")
    return stored.aggregate().render()


def test_walkthrough_matches_scenario():
    assert walkthrough.run_walkthrough() == run_in_memory("walkthrough").render()


def test_table2_matches_scenario(tmp_path):
    legacy = table2.run_table2(switch_count=12, seed=12).render()
    assert legacy == stored_render(
        "table2", {"switch_count": 12, "seed": 12}, tmp_path
    )


def test_fig9_matches_scenario(tmp_path):
    overrides = {"switch_counts": (100, 200), "instances_per_size": 2}
    legacy = fig9.run_fig9(
        switch_counts=(100, 200), instances_per_size=2
    ).render()
    assert legacy == stored_render("fig9", overrides, tmp_path)


def test_faults_legacy_loop_matches_scenario():
    # Delegation pin, records included.  The records' real cross-check
    # -- verdict vs. fluid plane -- runs inside every faulted run.
    kwargs = {
        "severities": (0.0, 0.5),
        "instances_per_point": 2,
        "switch_count": 8,
        "schemes": ("chronus", "or"),
    }
    legacy = faults_ablation.run_faults_ablation(**kwargs)
    scenario = run_in_memory("faults", dict(kwargs))
    assert [asdict(r) for r in legacy.records] == [
        asdict(r) for r in scenario.records
    ]
    assert legacy.render() == scenario.render()


@pytest.mark.slow
def test_fig6_matches_scenario(tmp_path):
    overrides = {"duration": 12.0}
    legacy = fig6.run_fig6(duration=12.0)
    stored = stored_render("fig6", overrides, tmp_path)
    assert legacy.render() == stored


@pytest.mark.slow
def test_fig7_matches_scenario(tmp_path):
    overrides = {
        "switch_counts": (10,),
        "instances_per_size": 4,
        "opt_budget": 60.0,
    }
    legacy = fig7.run_fig7(
        switch_counts=(10,), instances_per_size=4, opt_budget=60.0
    ).render()
    assert legacy == stored_render("fig7", overrides, tmp_path)


@pytest.mark.slow
def test_fig8_matches_scenario(tmp_path):
    overrides = {"switch_counts": (10,), "instances_per_size": 4}
    legacy = fig8.run_fig8(switch_counts=(10,), instances_per_size=4).render()
    assert legacy == stored_render("fig8", overrides, tmp_path)


@pytest.mark.slow
def test_fig10_matches_scenario_on_cutoff_pattern(tmp_path):
    # Timing records are wall-clock: only the deterministic content is
    # comparable (sizes, schemes, which cells hit the cutoff).
    overrides = {"switch_counts": (100,), "runs_per_size": 1, "cutoff": 30.0}
    legacy = fig10.run_fig10(switch_counts=(100,), runs_per_size=1, cutoff=30.0)
    store = ArtifactStore(root=tmp_path)
    stored = run_to_store("fig10", overrides, store=store, run_id="legacy-eq")
    result = stored.aggregate()
    assert result.switch_counts == legacy.switch_counts
    assert set(result.seconds) == set(legacy.seconds)
    for scheme in result.seconds:
        pattern = [v is None for v in result.seconds[scheme]]
        assert pattern == [v is None for v in legacy.seconds[scheme]]


@pytest.mark.slow
def test_fig11_matches_scenario(tmp_path):
    overrides = {"switch_count": 60, "instances": 3, "opt_budget": 30.0}
    legacy = fig11.run_fig11(switch_count=60, instances=3, opt_budget=30.0)
    stored = stored_render("fig11", overrides, tmp_path)
    assert legacy.render() == stored
