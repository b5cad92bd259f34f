"""Golden replay for the one plan path.

Every scheme used to answer "when does each switch flip?" twice -- an
``UpdateProtocol`` class (the gate's, fig6's and the faults ablation's
path) beside the registered ``Planner`` (the sweep's and the service's).
Before the protocol classes were deleted, both answers were frozen into
``tests/data/plan_goldens.json`` at the revision that file records (its
``generator`` key holds the script).  These tests hold the single
``Planner.plan`` path to every frozen entry, consumer by consumer:

* gate / serializer -- the ``chronus-plan/1`` document of the dispatched
  plan (times, rounds, rules, notes, feasibility claim), byte for byte;
* faults ablation -- the dispatched schedule;
* sweep -- plans under the shared per-instance RNG, and the outcome records;
* service / Fig. 11 -- plans with no ``rng``, and the makespan sample.

One deliberate difference, the ``aug`` feasibility bugfix: at epsilon > 0
the parent's planner path reported the relaxed greedy's claim, the
protocol path the claim re-judged on the true capacities.  The single
path answers what the protocol path did; the sweep records cannot tell
(``congestion_free = metrics and feasible``) and are pinned unchanged.

Documents re-pinned since are listed, with what they were and why, in the
fixture's ``moved`` block (``test_moved_documents_differ_by_their_cause``).
"""

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.instance import motivating_example, random_instance
from repro.core.serialization import plan_to_json
from repro.experiments.sweep import mixed_instance, run_instance
from repro.updates import available_schemes, get_planner, sweep_planners

SCHEMES = ("aug", "chronus", "opt", "or", "tp")


@pytest.fixture(scope="module")
def goldens():
    path = Path(__file__).parent / "data" / "plan_goldens.json"
    return json.loads(path.read_text())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _instance(entry, shortcut):
    kind = entry["kind"]
    if kind == "mixed":
        instance = mixed_instance(entry["switch_count"], entry["seed"])
    elif kind == "random16":
        instance = random_instance(16, seed=entry["seed"], capacity=2.0)
    elif kind == "fig1":
        instance = motivating_example()
    else:
        assert kind == "shortcut"
        instance = shortcut
    links = sorted((l.src, l.dst, l.capacity, l.delay) for l in instance.network.links)
    body = [list(instance.old_path), list(instance.new_path), links, instance.demand]
    assert _sha(json.dumps(body)) == entry["digest"], entry["id"]
    return instance


def _knobs(goldens, entry, aug_epsilon=0.0):
    budget = entry["node_budget"]
    return dict(
        goldens["wall_knobs"],
        opt_node_budget=budget,
        or_node_budget=budget,
        aug_epsilon=aug_epsilon,
    )


def _schedule_pin(schedule):
    return {
        "times": [[node, when] for node, when in schedule.times.items()],
        "start_time": schedule.start_time,
        "feasible": schedule.feasible,
    }


def _result_pin(plan):
    return {"schedule": _schedule_pin(plan.schedule), "feasible": plan.feasible}


def test_goldens_cover_every_registered_scheme(goldens):
    assert goldens["format"] == "plan-goldens/1"
    assert available_schemes() == SCHEMES
    assert len(goldens["entries"]) == 102
    for entry in goldens["entries"]:
        assert set(entry["protocol"]) == set(SCHEMES) | {"aug@1"}


def test_moved_documents_differ_by_their_cause(goldens):
    """A re-pinned document is the frozen one with only what its cause moves.

    Cause ``bound``: OPT's loop-freedom bound proves the schedule it had, so
    the budget note goes and the rest of the document -- schedule, rounds,
    rules, claim -- hashes back to the frozen bytes with the old note.
    """
    moved = goldens["moved"]
    by_id = {entry["id"]: entry for entry in goldens["entries"]}
    assert moved["entries"]
    for key, change in moved["entries"].items():
        entry_id, _, label = key.rpartition("/")
        assert change["cause"] in moved["causes"], key
        pinned = by_id[entry_id]["protocol"][label]
        frozen_notes = change["frozen"]["notes"]
        assert (frozen_notes, pinned["document"]["notes"]) == (
            "optimality not proven (budget)",
            "",
        ), key
        frozen = dict(pinned["document"], notes=frozen_notes)
        assert _sha(json.dumps(frozen, indent=2, sort_keys=True)) == change["frozen"]["sha256"]
        assert pinned["sha256"] != change["frozen"]["sha256"], key


@pytest.mark.parametrize("label", SCHEMES + ("aug@1",))
def test_document_and_dispatch_match_the_protocol_path(label, goldens, shortcut_instance):
    """What the gate verified, the serializer wrote and the faults
    ablation dispatched: one ``plan(instance, node_budget=...)`` call."""
    scheme, _, epsilon = label.partition("@")
    planner = get_planner(scheme)
    faults_key = "fault_schedule_eps1" if epsilon else "fault_schedule"
    for entry in goldens["entries"]:
        instance = _instance(entry, shortcut_instance)
        plan = planner.plan(
            instance, node_budget=entry["node_budget"], epsilon=float(epsilon or 0.0)
        )
        frozen = entry["protocol"][label]
        text = plan_to_json(plan)
        assert json.loads(text) == frozen["document"], entry["id"]
        assert _sha(text) == frozen["sha256"], entry["id"]

        dispatched = entry[faults_key][scheme]
        if planner.two_phase:
            assert dispatched is None  # the ablation reads only its start time
            assert plan.dispatched.t0 == 0
        else:
            # (The parent's OR hook left ``UpdateSchedule.feasible`` at its
            # default; nothing in the ablation reads that flag.)
            assert list(map(list, plan.dispatched.times.items())) == dispatched["times"]
            assert plan.dispatched.start_time == dispatched["start_time"], entry["id"]


def test_sweep_call_order_matches_the_planner_path(goldens, shortcut_instance):
    """One shared ``random.Random(seed ^ 0x5EED)`` across all five planners
    in ``sweep_planners`` order: the OPT fallback's draws shift OR's."""
    for entry in goldens["entries"]:
        instance = _instance(entry, shortcut_instance)
        knobs = _knobs(goldens, entry)
        rng = random.Random(entry["seed"] ^ 0x5EED)
        for planner in sweep_planners(SCHEMES):
            plan = planner.plan(instance, rng=rng, **planner.sweep_options(knobs))
            assert _result_pin(plan) == entry["sweep"][planner.name], (
                entry["id"],
                planner.name,
            )


def test_aug_claim_at_positive_epsilon_is_judged_on_true_capacities(goldens, shortcut_instance):
    """The bugfix: same schedule as the parent's planner path, the
    protocol path's feasibility -- and unchanged sweep records."""
    aug = get_planner("aug")
    differ = 0
    for entry in goldens["entries"]:
        instance = _instance(entry, shortcut_instance)
        knobs = _knobs(goldens, entry, aug_epsilon=1.0)
        plan = aug.plan(instance, **aug.sweep_options(knobs))
        parent_planner = entry["sweep_eps1"]["aug"]
        parent_protocol = entry["protocol"]["aug@1"]["document"]
        assert _schedule_pin(plan.schedule) == parent_planner["schedule"], entry["id"]
        assert plan.feasible == parent_protocol["feasible"], entry["id"]
        differ += plan.feasible != parent_planner["feasible"]

        outcome = run_instance(
            instance, entry["seed"], schemes=("aug",), verify=True, **knobs
        )["aug"]
        assert asdict(outcome) == entry["sweep_outcomes_eps1"]["aug"], entry["id"]
    assert differ == 31  # relaxed-feasible yet congested on the true network


def test_sweep_outcome_records_unchanged(goldens, shortcut_instance):
    for entry in goldens["entries"]:
        instance = _instance(entry, shortcut_instance)
        outcomes = run_instance(
            instance, entry["seed"], schemes=SCHEMES, verify=True, **_knobs(goldens, entry)
        )
        records = {name: asdict(outcome) for name, outcome in sorted(outcomes.items())}
        assert records == entry["sweep_outcomes"], entry["id"]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_plans_without_rng_match_the_planner_path(scheme, goldens, shortcut_instance):
    """The service's and Fig. 11's view: no ``rng``, so OR's realisation
    and OPT's fallback fall back to a private ``random.Random(0)``."""
    planner = get_planner(scheme)
    for entry in goldens["entries"]:
        instance = _instance(entry, shortcut_instance)
        plan = planner.plan(instance, **planner.sweep_options(_knobs(goldens, entry)))
        assert _result_pin(plan) == entry["default_rng"][scheme], entry["id"]
        sample = plan.schedule.makespan if plan.feasible else None
        assert sample == entry["makespan_sample"][scheme], entry["id"]
