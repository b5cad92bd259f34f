"""Golden replay for what a traced run says, item by item.

``tests/data/trace_goldens.json`` was written by this file's ``__main__`` at
the revision it records, by the two span stacks the repository then had --
the ``repro.perf`` registry (dotted-path aggregate timers and counters) and
the ``repro.trace`` recorder (``run`` / ``item:<key>`` / ``plan`` /
``opt.search`` spans, executor events, the service's point events) -- joined
by the per-item perf delta.  It is data, not a digest.  Per traced seeded run
(``RUNS`` below) it holds

* ``registry``: the perf registry's ``calls`` by full dotted path and its
  counter totals over the whole run, wrapper prefixes included;
* per item, ``calls`` by the aggregate spans' names and ``counters`` by the
  ``counter:*`` events' names, as the tape filed them under the item;
* per item, ``records``: the multiset of every other span and event of the
  item's subtree as ``[kind, name, status, stable attributes]``;
* per service request, ``requests``: ``id``, ``tenant``, the admit decision,
  the terminal ``status``, ``makespan``, ``switches`` and the switches its
  execution applied, in acknowledgement order (read off the
  ``ExecutionTrace`` each ``perform_resilient_update`` call returned -- the
  flat tape cannot attribute an ``apply`` to a request).

The burst-shaped cell (``service-burst``) is there because its intents
interleave: the generator refuses to write the file unless at least two
requests are executing at once.

Regenerate (only ever at a revision that still has both stacks)::

    PYTHONPATH=src python tests/test_trace_goldens.py > tests/data/trace_goldens.json
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.pipeline.context import RunContext
from repro.pipeline.runner import run_to_store
from repro.pipeline.store import ArtifactStore
from repro.trace.query import read_trace

GOLDENS_PATH = Path(__file__).parent / "data" / "trace_goldens.json"

#: name -> (scenario, overrides).  Node budgets bound the exact searches so
#: every ``calls`` figure and counter is a function of the seed alone.
RUNS = {
    "fig9": ("fig9", {"switch_counts": [20], "instances_per_size": 4}),
    "fig7": (
        "fig7",
        {
            "switch_counts": [10],
            "instances_per_size": 4,
            "opt_budget": 60.0,
            "or_budget": 60.0,
            "opt_node_budget": 20_000,
            "or_node_budget": 20_000,
        },
    ),
    "faults": ("faults", {"severities": [0.0, 0.5], "instances_per_point": 3}),
    # One resend only, so severity 0.5 gives switches up: ``rollback`` evidence.
    "faults-giveup": (
        "faults",
        {"severities": [0.5], "instances_per_point": 3, "max_retries": 1},
    ),
    "fig6": ("fig6", {"duration": 20.0}),
    "service": (
        "service",
        {"cells": 1, "pods": 4, "pod_size": 6, "requests": 12},
    ),
    "service-burst": (
        "service",
        {
            "cells": 1,
            "pods": 8,
            "pod_size": 6,
            "requests": 40,
            "mean_interarrival": 0.25,
            "planners": 4,
        },
    ),
}

EVIDENCE = ("apply", "late", "retry", "rollback")


def traced_run(name):
    """Run ``RUNS[name]`` with a JSONL sink; returns ``(stored, tape)``."""
    scenario, overrides = RUNS[name]
    with tempfile.TemporaryDirectory(prefix="trace-goldens-") as root:
        stored = run_to_store(
            scenario,
            overrides=overrides,
            ctx=RunContext(trace="jsonl"),
            store=ArtifactStore(root=root),
            run_id="golden",
        )
        return stored, read_trace(stored.handle.directory / "trace.jsonl")


def item_subtrees(tape):
    """``{item key: [records of its subtree, item span included]}``."""
    children = {}
    for record in tape:
        children.setdefault(record.parent_id, []).append(record)
    subtrees = {}
    for record in tape:
        if record.kind == "span" and record.name.startswith("item:"):
            members, frontier = [], [record]
            while frontier:
                node = frontier.pop()
                members.append(node)
                frontier.extend(children.get(node.span_id, ()))
            subtrees[record.attributes["key"]] = members
    return subtrees


def _entry(record):
    view = record.stable_view()
    return [view["kind"], view["name"], view["status"], view["attributes"]]


def _sorted_entries(records):
    return sorted(
        (_entry(record) for record in records),
        key=lambda entry: json.dumps(entry, sort_keys=True),
    )


# ----------------------------------------------------------------------
# the flat tape of the two stacks, read into the golden's shape
# ----------------------------------------------------------------------

def _is_aggregate(record):
    return record.kind == "span" and record.attributes.get("source") == "perf"


def _is_counter(record):
    return record.kind == "event" and record.name.startswith("counter:")


def summarise_item(members):
    calls, counters, others = {}, {}, []
    for record in members:
        if _is_aggregate(record):
            calls[record.name] = calls.get(record.name, 0) + record.attributes["calls"]
        elif _is_counter(record):
            name = record.name[len("counter:"):]
            counters[name] = counters.get(name, 0) + record.attributes["value"]
        else:
            others.append(record)
    return {
        "calls": dict(sorted(calls.items())),
        "counters": dict(sorted(counters.items())),
        "records": _sorted_entries(others),
    }


def test_fixture_covers_every_run_and_its_evidence():
    goldens = json.loads(GOLDENS_PATH.read_text())
    assert set(goldens["runs"]) == set(RUNS)
    seen = {
        entry[1]
        for run in goldens["runs"].values()
        for item in run["items"].values()
        for entry in item["records"]
    }
    assert set(EVIDENCE) <= seen
    burst = goldens["runs"]["service-burst"]["items"]["cell0"]
    assert burst["executing_at_once"] >= 2
    assert any(request["applied"] for request in burst["requests"])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traced_run_replays_the_frozen_tape(name):
    golden = json.loads(GOLDENS_PATH.read_text())["runs"][name]
    _, tape = traced_run(name)
    subtrees = item_subtrees(tape)
    assert set(subtrees) == set(golden["items"])
    for key, members in subtrees.items():
        expected = golden["items"][key]
        summary = json.loads(json.dumps(summarise_item(members)))
        assert summary["calls"] == expected["calls"], key
        assert summary["counters"] == expected["counters"], key
        assert summary["records"] == expected["records"], key


# ----------------------------------------------------------------------
# the generator (needs repro.perf and the service's point events)
# ----------------------------------------------------------------------

def _generate_run(name):
    import repro.service.service as service
    from repro.perf import perf

    executions, services = [], []
    dispatch, init = service.perform_resilient_update, service.UpdateService.__init__

    def recording_dispatch(controller, plane, instance, schedule, **kwargs):
        trace = dispatch(controller, plane, instance, schedule, **kwargs)
        executions.append((instance.flow.name, trace))
        return trace

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    service.perform_resilient_update = recording_dispatch
    service.UpdateService.__init__ = recording_init
    perf.reset()
    try:
        stored, tape = traced_run(name)
        registry = perf.snapshot()
    finally:
        service.perform_resilient_update = dispatch
        service.UpdateService.__init__ = init
        perf.reset()

    scenario, overrides = RUNS[name]
    items = {key: summarise_item(members) for key, members in item_subtrees(tape).items()}
    if scenario == "service":
        (cell,) = items.values()
        (record,) = stored.records
        (live,) = services
        cell.update(_request_facts(record, tape, executions, live))
    return {
        "scenario": scenario,
        "overrides": overrides,
        "registry": {
            "calls": {path: stat["calls"] for path, stat in registry["spans"].items()},
            "counters": registry["counters"],
        },
        "items": items,
    }


def _request_facts(record, tape, executions, live):
    """Per-request facts of one cell, from its point events and executions."""
    admit, done, planned, executed = {}, {}, {}, []
    for event in tape:
        attributes = event.attributes
        if event.name == "service.admit":
            admit[attributes["request"]] = attributes["decision"]
        elif event.name == "service.done":
            done[attributes["request"]] = attributes["status"]
        elif event.name == "service.plan" and event.kind == "event":
            planned[attributes["request"]] = attributes["switches"]
        elif event.name == "service.execute":
            executed.append((attributes["request"], attributes["tenant"]))
    # A tenant's updates never overlap (admission holds its footprint), so its
    # k-th dispatch is its k-th ``service.execute`` event.
    applied = {}
    remaining = list(executions)
    for request, tenant in executed:
        index = next(i for i, (name, _) in enumerate(remaining) if name == tenant)
        _, trace = remaining.pop(index)
        applied[request] = [str(node) for node in trace.applied]
    assert not remaining
    requests = []
    for entry in record["requests"]:
        assert done[entry["id"]] == entry["status"]
        if entry["id"] in planned and entry["switches"] is not None:
            assert planned[entry["id"]] == entry["switches"]
        requests.append(
            {
                "id": entry["id"],
                "tenant": entry["tenant"],
                "admit": admit[entry["id"]],
                "status": entry["status"],
                "makespan": entry["makespan"],
                "switches": entry["switches"],
                "applied": applied.get(entry["id"], []),
            }
        )
    windows = [
        (state.started_at, state.finished_at)
        for state in live._states.values()
        if state.started_at is not None and state.finished_at is not None
    ]
    executing_at_once = max(
        (sum(1 for a, b in windows if a <= start < b) for start, _ in windows),
        default=0,
    )
    return {"requests": requests, "executing_at_once": executing_at_once}


def _revision():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            check=True, capture_output=True, text=True, cwd=Path(__file__).parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


if __name__ == "__main__":
    runs = {name: _generate_run(name) for name in RUNS}
    burst = runs["service-burst"]["items"]["cell0"]
    if burst["executing_at_once"] < 2:
        raise SystemExit("the burst-shaped cell's intents do not interleave")
    json.dump({"revision": _revision(), "runs": runs}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
