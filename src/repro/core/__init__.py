"""Chronus core: the paper's algorithms and the dynamic-flow machinery.

Layout (one module per concept):

* :mod:`repro.core.instance` -- update instances (graph + two configs).
* :mod:`repro.core.schedule` -- timed update schedules.
* :mod:`repro.core.timeext` -- the time-extended network (Definition 4).
* :mod:`repro.core.trace` -- unit-level dynamic-flow oracle (Defs. 1-3).
* :mod:`repro.core.intervals` -- scalable exact flow tracking.
* :mod:`repro.core.intervals_array` -- the same state struct-of-arrays.
* :mod:`repro.core.tracker` -- picks one of the two per instance.
* :mod:`repro.core.dependency` -- Algorithm 3 (dependency relation sets).
* :mod:`repro.core.loops` -- Algorithm 4 (forwarding-loop check).
* :mod:`repro.core.greedy` -- Algorithm 2 (the Chronus scheduler).
* :mod:`repro.core.tree` -- Algorithm 1 (feasibility check).
* :mod:`repro.core.rounds` -- round-based loop-freedom (OR machinery).
* :mod:`repro.core.mutp` -- the MUTP integer program (program (3)).
* :mod:`repro.core.optimal` -- OPT, the exact minimum-update-time search.
* :mod:`repro.core.multiflow` -- multi-flow composition (program (3)'s F).
"""

from repro.core.instance import (
    UpdateInstance,
    instance_from_paths,
    instance_from_topology,
    motivating_example,
    random_instance,
    reversal_instance,
)
from repro.core.schedule import UpdateSchedule, schedule_from_rounds
from repro.core.timeext import TimeExtendedNetwork, build_window
from repro.core.trace import TraceResult, trace_schedule, validate_schedule
from repro.core.intervals import IntervalTracker
from repro.core.intervals_array import ArrayIntervalTracker
from repro.core.tracker import make_tracker, replay_schedule
from repro.core.dependency import DependencySet, dependency_relations
from repro.core.loops import creates_forwarding_loop
from repro.core.greedy import GreedyResult, greedy_schedule
from repro.core.tree import FeasibilityResult, check_update_feasibility
from repro.core.optimal import OptimalResult, optimal_schedule
from repro.core.mutp import build_mutp_model, solve_mutp
from repro.core.serialization import (
    plan_from_json,
    plan_to_json,
    schedule_from_json,
    schedule_to_json,
)
from repro.core.multiflow import (
    MultiFlowReport,
    MultiFlowResult,
    MultiFlowUpdate,
    greedy_multiflow,
    validate_multiflow,
)

__all__ = [
    "UpdateInstance",
    "instance_from_paths",
    "instance_from_topology",
    "motivating_example",
    "random_instance",
    "reversal_instance",
    "UpdateSchedule",
    "schedule_from_rounds",
    "TimeExtendedNetwork",
    "build_window",
    "TraceResult",
    "trace_schedule",
    "validate_schedule",
    "IntervalTracker",
    "ArrayIntervalTracker",
    "make_tracker",
    "replay_schedule",
    "DependencySet",
    "dependency_relations",
    "creates_forwarding_loop",
    "GreedyResult",
    "greedy_schedule",
    "FeasibilityResult",
    "check_update_feasibility",
    "OptimalResult",
    "optimal_schedule",
    "build_mutp_model",
    "solve_mutp",
    "MultiFlowUpdate",
    "MultiFlowReport",
    "MultiFlowResult",
    "greedy_multiflow",
    "validate_multiflow",
    "schedule_to_json",
    "schedule_from_json",
    "plan_to_json",
    "plan_from_json",
]
