"""Golden replay for the array tracker on long chains, report by report.

``tests/data/chain_goldens.json`` was written by this file's ``__main__`` at
the revision it records, *before* ``ArrayIntervalTracker`` learned to walk
deflections run by run and to decide congestion once per chain (DESIGN.md
section 11.6).  The small-instance lockstep suites cannot see that change:
their 12-40 switch instances have almost no chain interiors.  Per world
this file holds

* a digest of every ``RoundReport`` (time, nodes, loops, black holes,
  congestion spans in reported order) of a seeded round sequence mixing
  ``preview_round``, ``probe_and_commit`` and ``apply_round`` over a random
  switch order -- most rounds violate -- followed by one round that names a
  switch whose rule does not change (a split that starts mid-chain);
* ``congestion_spans()``, ``loops``, ``blackholes`` and
  ``finite_drain_horizon()`` of the state those rounds leave;
* the greedy schedule's sha256 / ``feasible`` / ``stalled_at`` / violation
  count on the array tracker, and the ``congestion_spans()`` digest of that
  schedule replayed round by round.

Worlds: ``segmented_instance`` at 300 / 1 000 / 2 000 switches x 4 / 8 / 32
segments x capacity 1.0 / 2.0 (``plain``); the same with one link *inside*
a chain given the other capacity (``o``), with background triples --
finite, half-open and ``(None, None)`` -- on chain-interior links (``b``),
and with every delay set to 1 (``f``, alone and combined, 4 and 8 segments
only): a half-updated segment is then a shortcut, and the flow it speeds
up overlaps the old flow on the whole chain downstream, which is what
makes long chains congest at all; ``random_instance(110...130)``; and
Fig. 1's pattern, drain rule included, between a 300-switch prefix and a
300-switch suffix.

A refused ``probe_and_commit`` has since become a *witness* (it stops at
the first class that loops or black-holes, or at the first over-capacity
chain; DESIGN.md section 7.4), so its own report is no longer the frozen
one.  The fixture is not regenerated for that: every probe round is first
previewed, the frozen digest is taken over the preview's report -- which is
what the probe returned at the frozen revision -- and the probe itself is
held to its contract against that preview (:func:`checked_probe`).

Regenerate (only ever at a revision whose tracker is the reference)::

    PYTHONPATH=src python tests/test_chain_goldens.py > tests/data/chain_goldens.json
"""

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.core import tracker as tracker_module
from repro.core.greedy import greedy_schedule
from repro.core.instance import instance_from_paths, random_instance, segmented_instance
from repro.core.intervals_array import ArrayIntervalTracker
from repro.core.serialization import schedule_to_json
from repro.network.graph import Network

GOLDENS_PATH = Path(__file__).parent / "data" / "chain_goldens.json"

SIZES = (300, 1000, 2000)
SEGMENTS = (4, 8, 32)
CAPACITIES = (1.0, 2.0)
RANDOM_SIZES = (110, 117, 124, 130)
OPERATIONS = ("preview_round", "probe_and_commit", "apply_round")
# Violating rounds leave looped classes behind and every later round splits
# them again; capping the sequence keeps the slowest world to a few seconds.
MAX_ROUNDS = 120
VARIANTS = ("plain", "o", "b", "f", "fo", "fob")
# Greedy on an infeasible world waits out every drain before it gives up;
# the step bound turns that into an early stall plus best-effort rounds.
GREEDY_STEPS = 48


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


def _span_record(span):
    return [list(span.link), span.start, span.end, span.load, span.capacity]


def _report_record(operation, report):
    return {
        "op": operation,
        "time": report.time,
        "nodes": list(report.nodes),
        "loops": [list(event) for event in report.loops],
        "blackholes": [list(event) for event in report.blackholes],
        "congestion": [_span_record(span) for span in report.congestion],
    }


def _state_record(tracker):
    return {
        "spans": [_span_record(span) for span in tracker.congestion_spans()],
        "loops": [list(event) for event in tracker.loops],
        "blackholes": [list(event) for event in tracker.blackholes],
        "horizon": tracker.finite_drain_horizon(),
        "applied": sorted(tracker.applied.items()),
    }


def assert_witness(probe, preview, label=""):
    """``probe_and_commit``'s report against ``preview_round``'s, same round.

    Same verdict, and every list a prefix of the preview's: nothing the
    preview does not say, in the order it says it.  An accepted probe has
    nothing to report and a refused one at least one violation, so the
    verdict pins both ends.
    """
    assert (probe.time, probe.nodes) == (preview.time, preview.nodes), label
    assert probe.ok == preview.ok, label
    for name in ("loops", "blackholes", "congestion"):
        found, full = getattr(probe, name), getattr(preview, name)
        assert found == full[: len(found)], (label, name)


def checked_probe(tracker, nodes, time):
    """``probe_and_commit`` held to its contract; returns the full report.

    Accepted: the probe's report is the preview's, byte for byte.  Refused:
    it is a witness of the preview's and the tracker is left as it was.
    """
    preview = tracker.preview_round(nodes, time)
    before = None if preview.ok else _state_record(tracker)
    probe = tracker.probe_and_commit(nodes, time)
    if preview.ok:
        assert _report_record("", probe) == _report_record("", preview)
    else:
        assert_witness(probe, preview, (nodes, time))
        assert _state_record(tracker) == before
    return preview


def interior_positions(instance):
    """Old-path positions strictly inside an unrerouted stretch.

    A position qualifies when it and both its neighbours keep their rule, so
    the links either side of it lie inside one chain.
    """
    path = instance.old_path
    keeps = [
        instance.old_config.get(node) == instance.new_config.get(node) for node in path
    ]
    return [
        i
        for i in range(2, len(path) - 2)
        if keeps[i - 1] and keeps[i] and keeps[i + 1]
    ]


def run_rounds(instance, background, seed):
    """Drive one seeded sequence; returns ``(tracker, report records)``."""
    rng = random.Random(seed)
    tracker = ArrayIntervalTracker(instance, background=background)
    records = []
    order = list(instance.switches_to_update)
    rng.shuffle(order)
    time = rng.randint(0, 2)
    while order and len(records) < MAX_ROUNDS:
        width = rng.randint(1, min(3, len(order)))
        nodes, rest = order[:width], order[width:]
        operation = rng.choice(OPERATIONS)
        if operation == "probe_and_commit":
            report = checked_probe(tracker, nodes, time)
        else:
            report = getattr(tracker, operation)(nodes, time)
        records.append(_report_record(operation, report))
        committed = operation == "apply_round" or (
            operation == "probe_and_commit" and report.ok
        )
        # Not committed: retry these switches later, behind the others.
        order = rest if committed else rest + nodes
        time += rng.randint(0, 3)
    # A round naming a switch whose rule stays: the split starts mid-chain.
    interior = [
        instance.old_path[i]
        for i in interior_positions(instance)
        if instance.old_path[i] not in tracker.applied
    ]
    if interior:
        node = interior[len(interior) // 2]
        for operation in ("preview_round", "apply_round"):
            records.append(
                _report_record(operation, getattr(tracker, operation)([node], time))
            )
    return tracker, records


def fingerprint(instance, background, seed) -> dict:
    tracker, records = run_rounds(instance, background, seed)
    # Every world is a long-path world by intent; random_instance(110) alone
    # sits under the factory's threshold, so pin the layout explicitly.
    with mock.patch.object(tracker_module, "ARRAY_TRACKER_MIN_HOPS", 0):
        result = greedy_schedule(
            instance, background=background, max_steps=GREEDY_STEPS
        )
    replay = ArrayIntervalTracker(instance, background=background)
    for time, nodes in result.schedule.rounds():
        replay.apply_round(nodes, time)
    return {
        "rounds": len(records),
        "violating": sum(
            1 for r in records if r["loops"] or r["blackholes"] or r["congestion"]
        ),
        "congested": sum(1 for r in records if r["congestion"]),
        "reports": digest(records),
        "state": digest(_state_record(tracker)),
        "greedy": {
            "sha256": hashlib.sha256(
                schedule_to_json(result.schedule).encode()
            ).hexdigest(),
            "feasible": result.feasible,
            "stalled_at": result.stalled_at,
            "violations": len(result.violations),
            "violation_reports": digest(
                [_report_record("apply_round", r) for r in result.violations]
            ),
        },
        "replay": digest(_state_record(replay)),
    }


# --- worlds ------------------------------------------------------------

def rebuilt(instance, capacities=None, unit_delays=False):
    """``instance`` on a copy of its network with capacities / delays edited.

    ``capacities`` maps ``(src, dst)`` to the capacity that link gets.
    """
    capacities = capacities or {}
    network = Network()
    for node in instance.network.switches:
        network.add_switch(node)
    for link in instance.network.links:
        network.add_link(
            link.src,
            link.dst,
            capacity=capacities.get(link.endpoints, link.capacity),
            delay=1 if unit_delays else link.delay,
        )
    return instance_from_paths(
        network, instance.old_path, instance.new_path, demand=instance.demand
    )


def segmented_world(size, segments, capacity, variant):
    """One ``segmented_instance`` world; ``variant`` is a set of letters.

    ``f`` (fast): every link gets delay 1, so a half-updated segment is a
    shortcut and the flow it speeds up catches the old flow on the whole
    chain downstream -- the worlds in which long chains actually congest.
    ``o`` (odd): the link out of one mid-chain switch gets the other
    capacity (smaller where two flows fit, larger where one does), so it is
    decided apart from its chain.  ``b``: background triples on four
    chain-interior links.
    """
    instance = segmented_instance(
        size, seed=1900 + size + segments, segments=segments, capacity=capacity
    )
    interior = interior_positions(instance)
    path = instance.old_path
    if "o" in variant or "f" in variant:
        i = interior[(2 * len(interior)) // 3]
        odd = {(path[i], path[i + 1]): 1.0 if capacity == 2.0 else 2.0}
        instance = rebuilt(
            instance,
            capacities=odd if "o" in variant else None,
            unit_delays="f" in variant,
        )
    background = None
    if "b" in variant:
        load = capacity / 2
        picks = [interior[(k * len(interior)) // 5] for k in (1, 2, 3, 4)]
        triples = [
            [(5, 40, load)],
            [(None, 30, load)],
            [(20, None, load), (0, 3, load / 2)],
            [(None, None, load / 2)],
        ]
        background = {
            (path[i], path[i + 1]): triple for i, triple in zip(picks, triples)
        }
    return instance, background, 7000 + size + segments


def random_world(size):
    return random_instance(size, seed=4100 + size, max_delay=3), None, 8000 + size


def fig1_world():
    """Fig. 1's six switches between two 300-switch chains.

    The drain rule ``v5 -> v2`` is a new-config rule off the new path, so the
    pattern's junctions sit between two long chains.
    """
    prefix = [f"p{i}" for i in range(300)]
    suffix = [f"s{i}" for i in range(300)]
    core = ["v1", "v2", "v3", "v4", "v5", "v6"]
    old_path = prefix + core + suffix
    new_path = prefix + ["v1", "v4", "v3", "v2", "v6"] + suffix
    network = Network()
    for src, dst in zip(old_path, old_path[1:]):
        network.add_link(src, dst, capacity=1.0, delay=1)
    for src, dst in [("v1", "v4"), ("v4", "v3"), ("v3", "v2"), ("v2", "v6"), ("v5", "v2")]:
        network.add_link(src, dst, capacity=1.0, delay=1)
    instance = instance_from_paths(
        network, old_path, new_path, extra_new_rules={"v5": "v2"}
    )
    return instance, None, 9001


WORLDS = {
    f"segmented-{size}-{segments}-c{capacity:g}-{variant}": (
        segmented_world,
        (size, segments, capacity, variant),
    )
    for size in SIZES
    for segments in SEGMENTS
    for capacity in CAPACITIES
    for variant in VARIANTS
    # 32 shortcut segments congest hundreds of short chains at once: minutes
    # per world at the reference revision, and per-link sweeps, not chains.
    if not ("f" in variant and segments == 32)
}
WORLDS.update((f"random-{size}", (random_world, (size,))) for size in RANDOM_SIZES)
WORLDS["fig1-between-chains"] = (fig1_world, ())


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS_PATH.read_text())["worlds"]


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_world_replays_byte_for_byte(name, goldens):
    build, args = WORLDS[name]
    assert fingerprint(*build(*args)) == goldens[name]


def test_every_frozen_world_is_replayed(goldens):
    assert sorted(goldens) == sorted(WORLDS)


def test_the_corpus_exercises_what_it_claims(goldens):
    """Violating, congested and clean rounds all occur; greedy both ways."""
    assert sum(world["congested"] for world in goldens.values()) > 100
    assert sum(world["rounds"] - world["violating"] for world in goldens.values()) > 100
    feasible = [world["greedy"]["feasible"] for world in goldens.values()]
    assert any(feasible) and not all(feasible)


if __name__ == "__main__":
    revision = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    json.dump(
        {
            "revision": revision,
            "note": (
                "written by tests/test_chain_goldens.py at this revision, before "
                "the chain-aware array tracker; see that file's docstring"
            ),
            "python": sys.version.split()[0],
            "worlds": {
                name: fingerprint(*build(*args))
                for name, (build, args) in sorted(WORLDS.items())
            },
        },
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
