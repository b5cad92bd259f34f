"""Chronus core: the paper's algorithms and the dynamic-flow machinery.

Layout (one module per concept):

* :mod:`repro.core.instance` -- update instances (graph + two configs).
* :mod:`repro.core.schedule` -- timed update schedules.
* :mod:`repro.core.intervals` -- scalable exact flow tracking.
* :mod:`repro.core.intervals_array` -- the same state struct-of-arrays.
* :mod:`repro.core.tracker` -- picks one of the two per instance.
* :mod:`repro.core.dependency` -- Algorithm 3 (dependency relation sets).
* :mod:`repro.core.loops` -- Algorithm 4 (forwarding-loop check).
* :mod:`repro.core.greedy` -- Algorithm 2 (the Chronus scheduler).
* :mod:`repro.core.tree` -- Algorithm 1 (feasibility check).
* :mod:`repro.core.rounds` -- round-based loop-freedom (OR machinery).
* :mod:`repro.core.mutp` -- the MUTP integer program (program (3)) over
  the time-extended network (Definition 4).
* :mod:`repro.core.optimal` -- OPT, the exact minimum-update-time search.

Every name below loads its module on first use (:mod:`repro.lazy`), so
``ArrayIntervalTracker`` loads only when read.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "instance": (
            "UpdateInstance",
            "instance_from_paths",
            "instance_from_topology",
            "motivating_example",
            "random_instance",
            "reversal_instance",
        ),
        "schedule": ("UpdateSchedule", "schedule_from_rounds"),
        "intervals": ("IntervalTracker",),
        "intervals_array": ("ArrayIntervalTracker",),
        "tracker": ("make_tracker", "replay_schedule"),
        "dependency": ("DependencySet", "dependency_relations"),
        "loops": ("LoopGates",),
        "greedy": ("GreedyResult", "greedy_schedule"),
        "tree": ("FeasibilityResult", "check_update_feasibility"),
        "optimal": ("OptimalResult", "optimal_schedule"),
        "mutp": ("build_mutp_model", "solve_mutp"),
        "serialization": (
            "schedule_to_json",
            "schedule_from_json",
            "plan_to_json",
            "plan_from_json",
        ),
    },
)
