"""Golden replay: the one span model says what the two frozen stacks said.

``tests/data/trace_goldens.json`` was written at the revision it records
(by the ``__main__`` this file had in commit ``94670cc``, before any
``src/`` change) by the two span stacks the repository then had -- the
``repro.perf`` registry (dotted-path aggregate timers and counters) and the
``repro.trace`` recorder (``run`` / ``item:<key>`` / ``plan`` /
``opt.search`` spans, executor events, the service's point events) -- joined
by the per-item perf delta.  It is data, not a digest.  Per traced seeded run
(``RUNS`` below) it holds

* ``registry``: the perf registry's ``calls`` by full dotted path and its
  counter totals over the whole run, wrapper prefixes included;
* per item, ``calls`` by the aggregate spans' names and ``counters`` by the
  ``counter:*`` events' names, as the flat tape filed them under the item;
* per item, ``records``: the multiset of every other span and event of the
  item's subtree as ``[kind, name, status, stable attributes]``;
* per service request, ``requests``: ``id``, ``tenant``, the admit decision,
  the terminal ``status``, ``makespan``, ``switches`` and the switches its
  execution applied, in acknowledgement order (read off each
  ``ExecutionTrace`` -- the flat tape could not attribute an ``apply`` to a
  request).

What the one recorder must reproduce, per item: ``calls`` summed by path
over the item's whole subtree and every counter total, **equal** once the
two wrapper timers this change deleted (``pipeline.<scenario>`` around the
run, ``service.plan`` around a batch's planning) are dropped from the front
of the frozen paths; the ``apply`` / ``late`` / ``retry`` / ``rollback``
events with their attributes; the ``item`` and ``plan`` spans; the
``opt.search`` / ``or.search`` records with ``explored`` / ``proven`` /
``width_cut`` (now the one timed call, so not even the duplicate's ``calls``
line is lost); and every per-request fact, now an attribute of that request's
own ``service.request`` span or an ``apply`` under its ``execute`` span.
What is new is named: the service-layer timers and the event counter of
``SERVICE_TIMERS`` / ``SERVICE_COUNTERS``, and the request / verify /
execute spans that replace the five ``service.*`` point events.

The fixture can only be regenerated at a revision that still has both
stacks (``git checkout 94670cc && PYTHONPATH=src python
tests/test_trace_goldens.py > tests/data/trace_goldens.json``).

**Entries re-pinned since, by cause.**  The fixture pins *work* counters,
and a refusal that costs less does less work.  When ``probe_and_commit``
became a witness, greedy's fallback stopped re-probing refused heads and
OPT began deciding an include before cloning (DESIGN.md 7.4, 13.2), these
keys -- and no others -- dropped, in every run that refuses anything
(``faults``, ``faults-giveup``, ``fig6``, ``fig7``, ``service``,
``service-burst``; ``fig9`` refuses nothing and did not move).  The
fixture's ``moved`` block holds each key's frozen and re-pinned value per
item, and ``test_only_refusal_work_moved`` holds it to this list:

* ``tracker.sweeps``, ``tracker.sweep_intervals`` (``MOVED_COUNTERS``) --
  a refused probe stops sweeping at its first over-capacity link and does
  not sweep at all behind a loop or black hole; in OPT (``fig7``) a loop /
  black-hole include whose rescuer sits on its pieces is carried as debt
  unswept, and a skipped fallback probe sweeps nothing (``fig6``);
* ``tracker.links_skipped`` -- the same passes, cut short or not run, also
  skip fewer provably-clean links;
* ``tracker.entry_memo.hit`` / ``.miss`` -- fewer links looked up for the
  reasons above; in OPT the lookups now land on the *parent's* memo, which
  every sibling include shares, instead of on a fresh clone's (misses fall
  tenfold on ``fig7``'s two wide items);
* ``calls`` of ``greedy.select.tracker.probe`` (``MOVED_CALLS``) -- the
  fallback skips the heads it refused in the same round (``fig6``: 10 -> 8).

A second cause moved ``fig7`` alone (``SHARING_RUNS``; DESIGN.md 15.1): a
sweep item now answers each question once.  OPT takes the greedy result
Chronus planned as its incumbent, so the ``opt.seed`` timer and every
``opt.seed.greedy.*`` leaf below it are gone (``[n, null]`` in ``moved``)
and the tracker work counters and ``tracker.probe.refused.split`` fall by
the seed greedy's share; a schedule two schemes return (OPT handing back
the incumbent) is replayed once, so ``tracker.apply`` calls fall -- and
are filed under the new ``analysis.metrics.measure`` timer that now wraps
each replay (``tracker.apply`` gone, ``analysis.metrics.measure`` and
``analysis.metrics.measure.tracker.apply`` new, beside
``core.instance.build``: ``SHARING_NEW_CALLS``, ``[null, n]``).  The three
counters that say so are new (``SHARING_COUNTERS``).  ``explored`` /
``proven`` of every ``opt.search``, every span and every attribute are the
frozen ones.

A third cause moved ``fig7`` alone (``BOUND_RUNS``; DESIGN.md 13.4): OPT's
loop-freedom lower bound proves every item's incumbent optimal at the
root.  Each item's ``opt.search`` record keeps its attributes but
``explored``, which falls (``records:opt.search`` in ``moved``, whole
attribute sets; ``proven`` may only go ``False -> True``); the search's
work counters fall or vanish with the nodes it no longer expands
(``BOUND_LOWERED``); ``search.bound.pruned`` is new (``BOUND_COUNTERS``).

New keys, written at the refusal revision and pinned from then on
(``REFUSAL_COUNTERS``): ``tracker.probe.refused.split`` / ``.congestion``,
``greedy.fallback.skipped``, ``search.include.kept`` / ``.pruned``,
``search.clones``.  Every span, event, attribute, status, request fact,
timer path and every other counter is the frozen one, byte for byte: the
re-pin (this file's ``__main__``) rewrites only the keys named here and
refuses to run when anything else differs.
"""

import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro.pipeline.context import RunContext
from repro.pipeline.runner import run_to_store
from repro.pipeline.store import ArtifactStore
from repro.trace.query import aggregate, ancestors, read_trace

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
    """``{item key: [records of its subtree, item span included]}``, tape order."""
    spans = {record.span_id: record for record in tape if record.kind == "span"}
    subtrees = {}
    for record in tape:
        for span in (record, *ancestors(record, spans)):
            if span.kind == "span" and span.name.startswith("item:"):
                subtrees.setdefault(span.attributes["key"], []).append(record)
    return subtrees


def _entry(record):
    view = record.stable_view()
    return [view["kind"], view["name"], view["status"], view["attributes"]]


def _pinned_record(pinned, name):
    """The attributes of an item's one pinned ``name`` record (``None``: none)."""
    found = [entry[3] for entry in pinned["records"] if entry[1] == name]
    assert len(found) <= 1, name
    return found[0] if found else None


def _found_record(members, name):
    """The attributes of a replayed item's one ``name`` span, as pinned."""
    (record,) = [record for record in members if record.kind == "span" and record.name == name]
    attributes = _entry(record)[3]
    attributes.pop("aggregate", None)
    attributes.pop("calls", None)
    return attributes


def _sorted_entries(records):
    return sorted(
        (_entry(record) for record in records),
        key=lambda entry: json.dumps(entry, sort_keys=True),
    )


# ----------------------------------------------------------------------
# frozen paths -> the paths the one recorder files them under
# ----------------------------------------------------------------------

#: Timers and counters the service layer gained (named after the bench's
#: per-layer metrics); everything else must match the fixture exactly.
SERVICE_TIMERS = {
    "service.build",
    "service.admission.offer",
    "service.admission.release",
    "validate.verifier.verify",
    "controller.resilient.dispatch",
    "simulator.engine.run",
}
SERVICE_COUNTERS = {"simulator.engine.events"}
#: Spans that replace the service's ``service.*`` point events.
SERVICE_SPANS = {"service.request", "execute", "validate.verifier.verify"}


#: Work counters and timer paths a cheaper refusal lowered (module docstring).
MOVED_COUNTERS = {
    "tracker.sweeps",
    "tracker.sweep_intervals",
    "tracker.links_skipped",
    "tracker.entry_memo.hit",
    "tracker.entry_memo.miss",
}
MOVED_CALLS = {"greedy.select.tracker.probe"}
#: Counters that say why: new with the same change, pinned by the fixture.
REFUSAL_COUNTERS = {
    "tracker.probe.refused.split",
    "tracker.probe.refused.congestion",
    "greedy.fallback.skipped",
    "search.include.kept",
    "search.include.pruned",
    "search.clones",
}


#: The runs whose items share answers between schemes (module docstring).
SHARING_RUNS = {"fig7"}
SHARING_LOWERED = MOVED_COUNTERS | {"tracker.probe.refused.split"}
SHARING_GONE_CALLS = ("opt.seed", "tracker.apply")  # the path or a prefix of it
SHARING_NEW_CALLS = {
    "core.instance.build",
    "analysis.metrics.measure",
    "analysis.metrics.measure.tracker.apply",
}
SHARING_COUNTERS = {
    "sweep.incumbent.reused",
    "sweep.judged.reused",
    "sweep.judged.fresh",
}

#: The runs whose OPT searches the loop-freedom bound cuts short.
BOUND_RUNS = {"fig7"}
BOUND_LOWERED = SHARING_LOWERED | {
    "search.clones",
    "search.include.kept",
    "search.include.pruned",
}
BOUND_COUNTERS = {"search.bound.pruned"}
#: The one recorded span whose attributes the bound moves.
BOUND_RECORD = "opt.search"


def _settled(attributes):
    """A search record's attributes the bound cannot move."""
    return {key: value for key, value in attributes.items() if key not in ("explored", "proven")}


def _bound_explains_record(frozen, now):
    """An ``opt.search`` record's attributes going ``frozen -> now`` under the bound."""
    return (
        _settled(frozen) == _settled(now)
        and now["explored"] <= frozen["explored"]
        and (now["proven"] or not frozen["proven"])
    )


def _explained(name, kind, path, frozen, now):
    """Does one of the three causes explain ``kind:path`` going ``frozen -> now``?

    ``None`` stands for "no such key"; ``path`` is free of wrapper prefixes.
    """
    sharing = name in SHARING_RUNS
    bound = name in BOUND_RUNS
    if kind == "records":
        return bound and path == BOUND_RECORD and _bound_explains_record(frozen, now)
    if kind == "counters":
        if frozen is None:
            return (
                path in REFUSAL_COUNTERS
                or (sharing and path in SHARING_COUNTERS)
                or (bound and path in BOUND_COUNTERS)
            )
        if bound and path in BOUND_LOWERED and (now is None or now < frozen):
            return True
        lowered = SHARING_LOWERED if sharing else MOVED_COUNTERS
        return now is not None and now < frozen and path in lowered
    if frozen is None:
        return sharing and path in SHARING_NEW_CALLS
    if now is None:
        return sharing and any(
            path == gone or path.startswith(gone + ".") for gone in SHARING_GONE_CALLS
        )
    return now < frozen and path in MOVED_CALLS


def _unwrapped(path, scenario):
    """A frozen timer path without the two deleted wrappers (``None``: dropped)."""
    for wrapper in (f"pipeline.{scenario}", "service.plan"):
        if path == wrapper:
            return None
        if path.startswith(wrapper + "."):
            path = path[len(wrapper) + 1:]
    return path


def without_wrappers(calls, scenario):
    """Frozen ``calls`` with the two deleted wrapper timers dropped."""
    out = {}
    for path, count in calls.items():
        path = _unwrapped(path, scenario)
        if path is not None:
            out[path] = out.get(path, 0) + count
    return out


def calls_and_counters(records):
    profile = aggregate(records)
    calls = {path: stat["calls"] for path, stat in profile["spans"].items()}
    return calls, profile["counters"]


def minus_new(found, new):
    return {name: value for name, value in found.items() if name not in new}


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


def test_only_refusal_work_moved():
    """The re-pinned entries are the ones the three listed causes explain."""
    goldens = json.loads(GOLDENS_PATH.read_text())
    moved = goldens["moved"]["keys"]
    assert set(moved) == set(RUNS) - {"fig9"}
    for name, scopes in moved.items():
        run = goldens["runs"][name]
        for scope, keys in scopes.items():
            pinned = run["registry"] if scope == "registry" else run["items"][scope]
            for key, (frozen, now) in keys.items():
                kind, _, path = key.partition(":")
                if kind == "records":
                    assert now == _pinned_record(pinned, path), (name, scope, key)
                else:
                    assert now == pinned[kind].get(path), (name, scope, key)
                if kind == "calls":
                    path = _unwrapped(path, run["scenario"])
                assert _explained(name, kind, path, frozen, now), (name, scope, key)
    # The sharing is in the fixture: no item of fig7 seeds OPT on its own.
    for item in goldens["runs"]["fig7"]["items"].values():
        assert item["counters"]["sweep.incumbent.reused"] == 1
        assert not any(path.startswith("opt.seed") for path in item["calls"])


@pytest.fixture(scope="module", params=sorted(RUNS))
def replay(request):
    golden = json.loads(GOLDENS_PATH.read_text())["runs"][request.param]
    _, tape = traced_run(request.param)
    subtrees = item_subtrees(tape)
    assert set(subtrees) == set(golden["items"])
    return golden, tape, subtrees


def test_calls_and_counters_are_equal_per_item(replay):
    golden, _, subtrees = replay
    for key, members in subtrees.items():
        expected = golden["items"][key]
        calls, counters = calls_and_counters(members)
        assert minus_new(calls, SERVICE_TIMERS) == without_wrappers(
            expected["calls"], golden["scenario"]
        ), key
        assert minus_new(counters, SERVICE_COUNTERS) == expected["counters"], key
        if golden["scenario"] == "service":
            assert SERVICE_TIMERS <= set(calls) and SERVICE_COUNTERS <= set(counters)
        else:
            assert not (SERVICE_TIMERS & set(calls))


def test_calls_and_counters_are_equal_over_the_run(replay):
    """The registry's whole-run totals, which carried ``pipeline.<scenario>.``."""
    golden, tape, _ = replay
    calls, counters = calls_and_counters(tape)
    assert minus_new(calls, SERVICE_TIMERS) == without_wrappers(
        golden["registry"]["calls"], golden["scenario"]
    )
    assert minus_new(counters, SERVICE_COUNTERS) == golden["registry"]["counters"]


def test_recorded_spans_and_evidence_are_equal_per_item(replay):
    golden, _, subtrees = replay
    for key, members in subtrees.items():
        frozen = Counter(
            json.dumps(entry, sort_keys=True)
            for entry in golden["items"][key]["records"]
            if not (entry[0] == "event" and entry[1].startswith("service."))
        )
        found = Counter()
        for record in members:
            entry = _entry(record)
            attributes = entry[3]
            if record.kind == "event" and record.name.startswith("counter:"):
                continue
            if record.name in SERVICE_SPANS:
                continue
            if attributes.pop("aggregate", False):
                if record.name not in ("opt.search", "or.search"):
                    continue
                assert attributes.pop("calls") == 1
            found[json.dumps(entry, sort_keys=True)] += 1
        assert found == frozen, key
        assert not any(r.name.startswith("service.") and r.kind == "event" for r in members)


@pytest.mark.parametrize(
    "replay",
    [name for name in sorted(RUNS) if RUNS[name][0] == "service"],
    indirect=True,
)
def test_every_request_fact_is_on_its_own_span(replay):
    golden, tape, subtrees = replay
    (members,) = subtrees.values()
    (expected,) = golden["items"].values()
    by_id = {record.span_id: record for record in tape}
    spans = {
        record.attributes["request"]: record
        for record in members
        if record.name == "service.request"
    }
    applied = {request: [] for request in spans}
    for record in members:  # tape order is acknowledgement order
        if record.kind == "event" and record.name == "apply":
            execute, request = list(ancestors(record, by_id))[:2]
            assert (execute.name, request.name) == ("execute", "service.request")
            applied[request.attributes["request"]].append(record.attributes["switch"])
    assert len(spans) == len(expected["requests"])
    for fact in expected["requests"]:
        attributes = spans[fact["id"]].attributes
        assert attributes["tenant"] == fact["tenant"]
        assert attributes["admit"] == fact["admit"]
        assert attributes["status"] == fact["status"]
        assert attributes.get("makespan") == fact["makespan"]
        assert attributes.get("switches") == fact["switches"]
        assert applied[fact["id"]] == fact["applied"]


def _repin(goldens):
    """Rewrite the entries :func:`_explained` allows from a fresh replay.

    Anything else that differs from the fixture is an error, not a re-pin.
    A key re-pinned before keeps the value it was frozen at; a key that is
    gone leaves the fixture and stays in ``moved`` as ``[frozen, null]``.
    """
    moved = goldens.get("moved", {}).get("keys", {})
    for name in sorted(RUNS):
        run = goldens["runs"][name]
        _, tape = traced_run(name)
        scopes = dict(item_subtrees(tape))
        assert set(scopes) == set(run["items"]), name
        scopes["registry"] = tape
        for scope, members in scopes.items():
            pinned = run["registry"] if scope == "registry" else run["items"][scope]
            calls, counters = calls_and_counters(members)
            calls = minus_new(calls, SERVICE_TIMERS)
            counters = minus_new(counters, SERVICE_COUNTERS)
            changes = {}
            plain_of = {
                path: _unwrapped(path, run["scenario"]) for path in pinned["calls"]
            }
            for path, plain in plain_of.items():
                frozen, now = pinned["calls"][path], calls.get(plain)
                if plain is None or now == frozen:
                    continue
                if list(plain_of.values()).count(plain) != 1 or not _explained(
                    name, "calls", plain, frozen, now
                ):
                    raise SystemExit(f"{name}/{scope}: calls of {path} moved")
                changes["calls:" + path] = [frozen, now]
            for plain in sorted(set(calls) - set(plain_of.values())):
                if not _explained(name, "calls", plain, None, calls[plain]):
                    raise SystemExit(f"{name}/{scope}: new timer path {plain}")
                changes["calls:" + plain] = [None, calls[plain]]
            for path in sorted(set(counters) | set(pinned["counters"])):
                frozen, now = pinned["counters"].get(path), counters.get(path)
                if frozen == now:
                    continue
                history = moved.get(name, {}).get(scope, {}).get("counters:" + path)
                first = history[0] if history else frozen
                if not _explained(name, "counters", path, first, now):
                    raise SystemExit(f"{name}/{scope}: counter {path} moved")
                changes["counters:" + path] = [frozen, now]
            frozen = None if scope == "registry" else _pinned_record(pinned, BOUND_RECORD)
            if frozen is not None:
                now = _found_record(members, BOUND_RECORD)
                if now != frozen:
                    history = moved.get(name, {}).get(scope, {}).get("records:" + BOUND_RECORD)
                    first = history[0] if history else frozen
                    if not _explained(name, "records", BOUND_RECORD, first, now):
                        raise SystemExit(f"{name}/{scope}: {BOUND_RECORD} record moved")
                    changes["records:" + BOUND_RECORD] = [frozen, now]
            for key, (frozen, now) in changes.items():
                kind, _, path = key.partition(":")
                if kind == "records":
                    for entry in pinned["records"]:
                        if entry[1] == path:
                            entry[3] = now
                elif now is None:
                    del pinned[kind][path]
                else:
                    pinned[kind][path] = now
                history = moved.setdefault(name, {}).setdefault(scope, {})
                first = history.get(key, [frozen])[0]
                if first == now:  # back where it was frozen: nothing moved
                    del history[key]
                else:
                    history[key] = [first, now]
    return moved


if __name__ == "__main__":
    import subprocess

    frozen = json.loads(GOLDENS_PATH.read_text())
    head = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    earlier = frozen.get("moved", {}).get("revisions", [])
    frozen["moved"] = {
        "revisions": earlier + [head] * (head not in earlier),
        "note": "[frozen, re-pinned] per key (null: no such key), replayed on the working tree on top of the last of these revisions, one per cause; see tests/test_trace_goldens.py",
        "keys": _repin(frozen),
    }
    GOLDENS_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
