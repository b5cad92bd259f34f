"""The one place a flow-state representation is chosen.

:class:`~repro.core.intervals.IntervalTracker` (dict layout) and
:class:`~repro.core.intervals_array.ArrayIntervalTracker` (struct of
arrays) expose the same surface and return the same reports byte for
byte (``tests/test_array_tracker.py``, ``tests/test_tracker_choice.py``);
they differ only in what a probe costs.  The dict tracker pays Python
work proportional to trajectory length for every class it creates; the
array tracker pays a dict lookup per alive class for each decisive link a
probe touches, and otherwise what the *rerouted switches* need, not what
the path is long (chains and run-length classes,
:mod:`repro.core.intervals_array`).  Measured greedy ms/plan, array vs
dict (``benchmarks/perf_harness.bench_tracker_grid``, ``BENCH_sweep.json``
record #22, one run on a 2-cpu box, the same run's dict column beside each
array figure):

* ``segmented_instance`` (few local detours on an n-hop chain): 2.8 vs
  6.1 at 100 hops, 3.2 vs 10.8 at 200, 4.2 vs 50.2 at 800 -- the array
  tracker is ahead from below 100 hops and its cost does not grow with
  the path: 2.8 at 20 000 hops on 4 segments.  It grows with the
  *segments* (46 on 16, 342 on 32 at 20 000 hops), where rounds, probes
  and alive classes multiply; a deflection walks only its detour and
  copies the rest of its parent's route;
* ``random_instance`` (global reroutes, where every switch is a junction
  and there is no chain to skip): 2.2 vs 1.4 at 32 hops, 11.9 vs 5.8 at
  64, 78 vs 30 at 128, 1 102 vs 388 at 256 -- dict wins 1.5-2.8x at every
  size measured, so above the threshold such instances still run on
  their slower side.

The threshold stays at 200: between 100 and 200 hops the array tracker is
already ahead on segmented plans, and moving it would trade a small
segmented gain for filing more global reroutes on their slow side.

Every caller (greedy, the OPT search, :func:`replay_schedule`, Algorithm
1) builds its tracker here and reads only the surface both layouts share
-- the round methods, the per-link ``crossings`` / ``crosses`` and, per class, ``switch_names`` /
``offset_at`` / ``trajectory_key`` -- so the choice is made once, from
the instance alone, and no other module tells the layouts apart.  Both
number their links internally and speak ``(src, dst)`` names here.  Every
planner walks the one tracker it builds: greedy and Algorithm 1 probe and
commit into it, and the OPT search commits undoably and backtracks by undo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.core.instance import UpdateInstance
from repro.core.intervals import IntervalTracker
from repro.core.schedule import UpdateSchedule

if TYPE_CHECKING:
    from repro.core.intervals_array import ArrayIntervalTracker

Tracker = Union[IntervalTracker, "ArrayIntervalTracker"]

# Trajectory hops (old path + new path) from which the array layout is
# built.  Paths, not network size: a service intent reroutes a 12-hop path
# on a 416-node shared network and is a short-trajectory instance.
ARRAY_TRACKER_MIN_HOPS = 200


def make_tracker(instance: UpdateInstance, t0: int = 0, background=None) -> Tracker:
    """The faster exact tracker for ``instance``'s trajectory length.

    Arguments are those of :class:`~repro.core.intervals.IntervalTracker`;
    background load on a link the network lacks is a ``KeyError`` from
    either class.
    """
    hops = len(instance.old_path) + len(instance.new_path)
    if hops < ARRAY_TRACKER_MIN_HOPS:
        return IntervalTracker(instance, t0=t0, background=background)
    # A process that plans nothing this long never loads the array layout
    # (DESIGN.md §16.1).
    from repro.core.intervals_array import ArrayIntervalTracker

    return ArrayIntervalTracker(instance, t0=t0, background=background)


def replay_schedule(
    instance: UpdateInstance, schedule: UpdateSchedule, background=None
) -> Tracker:
    """Replay a full schedule round by round and return the final tracker.

    The tracker's ``loops``/``blackholes`` lists and ``congestion_spans()``
    then describe every transient violation of the schedule: the interval
    -level counterpart of :func:`repro.validate.verifier.verify_schedule`.
    Rounds are committed without their per-round congestion pass
    (``commit_round``): the final state is the one ``apply_round`` leaves,
    and the final check reads every link once.  ``background`` is the
    trackers' static load from other flows.  Callers may rely on the surface
    both trackers share, not on a layout.
    """
    tracker = make_tracker(instance, t0=schedule.t0, background=background)
    for time, nodes in schedule.rounds():
        tracker.commit_round(nodes, time)
    return tracker
