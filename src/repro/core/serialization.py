"""JSON persistence for schedules and plans (operational tooling).

A timed update schedule is the artefact a production controller would hand
to its execution layer (or archive for audits); these helpers give it a
stable, versioned JSON form.  Full update plans serialise with their
execution semantics (``semantics``/``executor``) resolved from the plan's
registered planner -- a consumer replays or re-verifies the plan without
ever comparing protocol names.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro.core.schedule import UpdateSchedule

_FORMAT = "chronus-schedule/1"
_PLAN_FORMAT = "chronus-plan/1"


def schedule_to_json(schedule: UpdateSchedule, indent: int = 2) -> str:
    """Serialise a schedule to JSON text."""
    payload: Dict[str, Any] = {
        "format": _FORMAT,
        "start_time": schedule.start_time,
        "feasible": schedule.feasible,
        "times": dict(schedule.times),
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def schedule_from_json(text: str) -> UpdateSchedule:
    """Parse a schedule previously produced by :func:`schedule_to_json`.

    Raises:
        ValueError: on unknown format markers or malformed payloads.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document")
    with _malformed(_FORMAT):
        return _schedule(payload, "'times' mapping")


@contextmanager
def _malformed(document: str) -> Iterator[None]:
    """A missing key or a mistyped value, as the promised ``ValueError``."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {document} document: {exc!r}") from exc


def _schedule(doc: Dict[str, Any], missing: str) -> UpdateSchedule:
    times = doc.get("times")
    if not isinstance(times, dict):
        raise ValueError(f"missing {missing}")
    return UpdateSchedule(
        times={str(node): int(when) for node, when in times.items()},
        start_time=doc.get("start_time"),
        feasible=bool(doc.get("feasible", True)),
    )


def plan_to_json(plan, indent: int = 2) -> str:
    """Serialise an :class:`repro.updates.registry.UpdatePlan` to JSON text.

    The document describes what the controller is handed
    (``plan.dispatched``: the nominal round schedule for round-executed
    schemes) and embeds the plan's execution semantics, derived from the
    registered planner's capability flags: ``semantics`` is
    ``"two-phase"`` for versioned-install plans (re-verify with
    ``verify_two_phase``) and ``"in-place"`` otherwise, ``executor`` is
    the strategy the differential replay would use, and ``feasible`` is
    the plan's consistency *claim* (always false for schemes that make
    none).  Unregistered schemes serialise with in-place/timed defaults.
    """
    from repro.updates.registry import TIMED, TWO_PHASE

    planner = plan.planner
    two_phase = planner is not None and planner.executor == TWO_PHASE
    schedule = plan.dispatched
    rules = plan.rules
    payload: Dict[str, Any] = {
        "format": _PLAN_FORMAT,
        "protocol": plan.scheme,
        "semantics": "two-phase" if two_phase else "in-place",
        "executor": planner.executor if planner is not None else TIMED,
        "feasible": plan.claims_consistency,
        "notes": plan.notes,
        "rules": {
            "installs": rules.installs,
            "modifies": rules.modifies,
            "deletes": rules.deletes,
            "baseline_rules": rules.baseline_rules,
            "peak_rules": rules.peak_rules,
        },
        "rounds": [[when, list(nodes)] for when, nodes in plan.rounds],
        "schedule": {
            "start_time": schedule.start_time,
            "feasible": schedule.feasible,
            "times": dict(schedule.times),
        },
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def plan_from_json(text: str):
    """Parse a plan previously produced by :func:`plan_to_json`.

    The instance is not part of the document (it is environment-bound), so
    the returned plan carries ``instance=None`` and the document's rounds
    and rule accounting as recorded values; its ``schedule`` is the
    dispatched one.

    Raises:
        ValueError: on unknown format markers or malformed payloads.
    """
    from repro.updates.base import RuleAccounting
    from repro.updates.registry import UpdatePlan

    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("format") != _PLAN_FORMAT:
        raise ValueError(f"not a {_PLAN_FORMAT} document")
    schedule_doc = payload.get("schedule")
    rules_doc = payload.get("rules")
    if not isinstance(schedule_doc, dict) or not isinstance(rules_doc, dict):
        raise ValueError("missing 'schedule' or 'rules' mapping")
    with _malformed(_PLAN_FORMAT):
        schedule = _schedule(schedule_doc, "schedule 'times' mapping")
        rules = RuleAccounting(
            installs=int(rules_doc["installs"]),
            modifies=int(rules_doc["modifies"]),
            deletes=int(rules_doc["deletes"]),
            baseline_rules=int(rules_doc["baseline_rules"]),
            peak_rules=int(rules_doc["peak_rules"]),
        )
        rounds = [
            (int(when), tuple(str(node) for node in nodes))
            for when, nodes in payload.get("rounds", [])
        ]
    return UpdatePlan(
        scheme=str(payload.get("protocol", "")),
        schedule=schedule,
        feasible=bool(payload.get("feasible", True)),
        notes=str(payload.get("notes", "")),
        recorded_rounds=rounds,
        recorded_rules=rules,
    )
