"""Chronus: consistent data plane updates in timed SDNs.

A complete reproduction of *Chronus: Consistent Data Plane Updates in Timed
SDNs* (Zheng, Chen, Schmid, Dai, Wu -- ICDCS 2017): the congestion- and
loop-free timed update scheduling algorithms, the OR/TP/OPT baselines, and a
discrete-event SDN substrate (data plane, controller, clocks) standing in
for the paper's Mininet/Floodlight testbed.

Quick start::

    from repro import motivating_example, greedy_schedule, verify_schedule

    instance = motivating_example()          # the paper's Fig. 1 network
    result = greedy_schedule(instance)       # Algorithm 2
    print(result.schedule)                   # v2@t0, {v1,v3}@t1, v4@t2, v5@t3
    assert verify_schedule(instance, result.schedule).ok

Package map:

* :mod:`repro.core` -- the paper's algorithms (greedy, tree, OPT, MUTP ILP)
  and the dynamic-flow trackers.
* :mod:`repro.network` -- graphs, paths, flows, topology generators.
* :mod:`repro.updates` -- the planner registry: one class per scheme
  (Chronus, OPT, OR, two-phase, AUG); ``get_planner(name).plan(instance)``
  returns the one plan type, :class:`UpdatePlan`.
* :mod:`repro.simulator` -- fluid discrete-event data plane.
* :mod:`repro.controller` -- controller, async channel, clocks, Algorithm 5.
* :mod:`repro.solver` -- ILP model, solved exactly by HiGHS (scipy).
* :mod:`repro.validate` -- the independent judge of Definitions 1-3
  (:func:`verify_schedule` returns a :class:`Verdict`) and its cross-checks
  against the simulator.
* :mod:`repro.analysis` -- metrics and statistics.
* :mod:`repro.experiments` -- one module per table/figure of the paper.

``import repro`` imports none of them: each name below loads its module on
first use (:mod:`repro.lazy`).
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core": (
            "UpdateInstance",
            "UpdateSchedule",
            "IntervalTracker",
            "ArrayIntervalTracker",
            "GreedyResult",
            "FeasibilityResult",
            "OptimalResult",
            "greedy_schedule",
            "optimal_schedule",
            "check_update_feasibility",
            "solve_mutp",
            "replay_schedule",
            "motivating_example",
            "random_instance",
            "reversal_instance",
            "instance_from_paths",
            "instance_from_topology",
        ),
        "network": ("Flow", "Link", "Network"),
        "validate": ("Verdict", "verify_schedule"),
        "updates": ("UpdatePlan", "available_schemes", "get_planner"),
    },
)
__all__.insert(0, "__version__")
