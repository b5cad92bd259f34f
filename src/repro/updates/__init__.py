"""Network update schemes: Chronus and the paper's baselines.

Every scheme is one :class:`repro.updates.registry.Planner` subclass,
registered at import time from its own module.  ``get_planner(name).plan(
instance)`` is the only way to obtain a plan and
:class:`repro.updates.registry.UpdatePlan` the only plan type: update
times, the round partition of round-executed schemes, the feasibility
claim, and rule-operation accounting derived on read.  The benchmark
schemes follow Section V:

* ``chronus`` -- the timed greedy scheduler (Algorithm 2);
* ``tp`` -- two-phase versioned updates (Reitblatt et al.);
* ``or`` -- order replacement updates minimising controller rounds while
  avoiding forwarding loops (Ludwig et al.), solved by branch and bound;
* ``opt`` -- the optimal MUTP solution;
* ``aug`` -- greedy timed updates with ``(1+epsilon)`` transient capacity
  headroom (Henzinger & Pourdamghani).

Downstream code dispatches through the registry
(:func:`repro.updates.registry.get_planner`) and the planners' capability
flags rather than comparing scheme names.
"""

from repro.updates.base import RuleAccounting, rule_accounting
from repro.updates.registry import (
    DEFAULT_SCHEMES,
    DuplicateSchemeError,
    Planner,
    SchemeMetrics,
    UnknownSchemeError,
    UpdatePlan,
    available_schemes,
    find_planner,
    get_planner,
    planners_for,
    register_planner,
    sweep_planners,
)
from repro.updates import chronus, optimal  # noqa: F401  (registration side effect)
from repro.updates.two_phase import two_phase_congestion_spans
from repro.updates.order_replacement import minimize_rounds, realize_round_times
from repro.updates.augmented import augmented_instance

__all__ = [
    "RuleAccounting",
    "rule_accounting",
    "UpdatePlan",
    "DEFAULT_SCHEMES",
    "DuplicateSchemeError",
    "Planner",
    "SchemeMetrics",
    "UnknownSchemeError",
    "available_schemes",
    "find_planner",
    "get_planner",
    "planners_for",
    "register_planner",
    "sweep_planners",
    "two_phase_congestion_spans",
    "minimize_rounds",
    "realize_round_times",
    "augmented_instance",
]
