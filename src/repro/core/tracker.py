"""The one place a flow-state representation is chosen.

:class:`~repro.core.intervals.IntervalTracker` (dict layout) and
:class:`~repro.core.intervals_array.ArrayIntervalTracker` (struct of
arrays) expose the same surface and return the same reports byte for
byte (``tests/test_array_tracker.py``, ``tests/test_tracker_choice.py``);
they differ only in what a probe costs.  The dict tracker pays Python
work proportional to trajectory length for every class it creates; the
array tracker pays a fixed numpy call overhead per probe and per alive
class, and otherwise what the *rerouted switches* need, not what the path
is long (chains and run-length classes, :mod:`repro.core.intervals_array`).
Measured greedy ms/plan, array vs dict (the ``tracker_grid`` block of
``BENCH_sweep.json`` record #13):

* ``segmented_instance`` (few local detours on an n-hop chain): 5.4 vs
  7.9 at 100 hops, 7.7 vs 12.0 at 200, 6.6 vs 58.9 at 800 -- the two
  cross at about 100 hops and the array cost does not grow with the
  path: 6.2 at 20 000 hops on 4 segments.  It grows with the *segments*
  (80.8 on 16, 543 on 32 at 20 000 hops), where rounds, probes and the
  runs a deflection routes all multiply;
* ``random_instance`` (global reroutes, where every switch is a junction
  and there is no chain to skip): 6.5 vs 2.0 at 32 hops, 23.3 vs 11.5 at
  64, 180 vs 54.8 at 128 -- dict wins 2-3x at every size measured, so
  above the threshold such instances still run on their slower side.

The threshold stays at 200: between 100 and 200 hops the two are within
1.5-1.6x of each other on segmented plans, and moving it would trade a
small segmented gain for filing more global reroutes on their slow side.

Every caller that needs only the shared surface (greedy, the OPT search
root, :func:`replay_schedule`, Algorithm 1) builds its tracker here, so
the choice is made once, from the instance alone.
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
    # The array layout is numpy's only user on the planning side: a process
    # that plans nothing this long never loads it (DESIGN.md §16.1).
    from repro.core.intervals_array import ArrayIntervalTracker

    return ArrayIntervalTracker(instance, t0=t0, background=background)


def replay_schedule(instance: UpdateInstance, schedule: UpdateSchedule) -> Tracker:
    """Replay a full schedule round by round and return the final tracker.

    The tracker's ``loops``/``blackholes`` lists and ``congestion_spans()``
    then describe every transient violation of the schedule: the interval
    -level counterpart of :func:`repro.core.trace.validate_schedule`.
    Callers may rely on the surface both trackers share, not on a layout.
    """
    tracker = make_tracker(instance, t0=schedule.t0)
    for time, nodes in schedule.rounds():
        tracker.apply_round(nodes, time)
    return tracker
