"""Shared fixtures for the test suite."""

import json
from pathlib import Path

import pytest

import repro.runtime.parallel as parallel
from repro.core.instance import (
    instance_from_paths,
    motivating_example,
    random_instance,
)
from repro.core.schedule import UpdateSchedule
from repro.network.graph import Network


@pytest.fixture(scope="session")
def engine_goldens():
    """Values frozen from the superseded engines (see the file's header keys)."""
    path = Path(__file__).parent / "data" / "engine_goldens.json"
    return json.loads(path.read_text())


@pytest.fixture
def fig1_instance():
    """The paper's Fig. 1 six-switch motivating example."""
    return motivating_example()


@pytest.fixture
def paper_schedule():
    """The timed sequence of Fig. 1(e)-(h): v2@t0, v3@t1, {v1,v4}@t2, v5@t3."""
    return UpdateSchedule(
        {"v2": 0, "v3": 1, "v1": 2, "v4": 2, "v5": 3}, start_time=0
    )


@pytest.fixture
def tiny_instance():
    """A four-switch instance with one slow detour (always feasible)."""
    net = Network()
    for src, dst, delay in [
        ("a", "b", 1),
        ("b", "c", 1),
        ("c", "d", 1),
        ("a", "c", 3),
    ]:
        net.add_link(src, dst, capacity=1.0, delay=delay)
    return instance_from_paths(net, ["a", "b", "c", "d"], ["a", "c", "d"])


@pytest.fixture
def shortcut_instance():
    """A four-switch instance with a fast shortcut (provably infeasible).

    The new path reaches the shared link (c, d) one step earlier than the
    old path's in-flight traffic, so some emission pair always collides.
    """
    net = Network()
    for src, dst, delay in [
        ("a", "b", 1),
        ("b", "c", 1),
        ("c", "d", 1),
        ("a", "c", 1),
    ]:
        net.add_link(src, dst, capacity=1.0, delay=delay)
    return instance_from_paths(net, ["a", "b", "c", "d"], ["a", "c", "d"])


@pytest.fixture
def two_cpus(monkeypatch):
    """Lift the CPU cap so a run's pool forks on single-core boxes too."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
