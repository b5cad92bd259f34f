"""An independent re-derivation of the paper's consistency definitions.

:func:`verify_schedule` answers "is this timed schedule actually loop-,
drop- and congestion-free?" for *any* :class:`UpdateSchedule` -- produced by
Chronus, OR, TP, OPT or written by hand -- without trusting the scheduler
that produced it.  Following Time4's position that consistency must be
checked independently of the planner, the implementation is a deliberately
plain trajectory replay: it shares no code with
:class:`repro.core.intervals.IntervalTracker` (no flow classes, no interval
splitting, no sweeps), so a bug in the tracker cannot hide itself here.

The replay window runs to ``t_last + (|V| + 1) * max_delay``, far past the
update itself, and is split in two:

* **Transient** -- emissions before ``t_last`` (the last update time) are
  walked one by one, hop by hop: each may meet a different mix of old and
  new rules.
* **Steady** -- an emission ``e >= t_last`` departs every hop at a time
  ``>= e`` (delays are positive), hence ``>= t_last``, hence ``>=`` every
  update time: the rule it takes at a switch does not depend on ``e``.
  All of them travel one trajectory, so it is walked once and its hops --
  and its loop or blackhole, if it ends in one -- are replicated for the
  rest by time shift.

The capacity check then skips a link outright when the peak of its load
series plus all its background load cannot exceed capacity (loads are
non-negative, so that is an upper bound on every step) and scans the
remaining links step by step.  The cost is O(transient x hops + output
size) with the verdict -- ``loads`` included -- exactly what walking every
emission would give; ``tests/reference_verifier.py`` keeps that walk and
``tests/test_verifier_equivalence.py`` holds the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.core.verdict import (
    BlackholeViolation,
    CapacityViolation,
    LoopViolation,
    Verdict,
)
from repro.network.graph import Network, Node

LinkKey = Tuple[Node, Node]
Background = Mapping[LinkKey, Sequence[Tuple[Optional[int], Optional[int], float]]]

_EPS = 1e-9


def verify_schedule(
    instance: UpdateInstance,
    schedule: UpdateSchedule,
    background: Optional[Background] = None,
    extra_horizon: int = 0,
) -> Verdict:
    """Re-derive Definitions 2 and 3 for ``schedule`` from first principles.

    Every emission from ``t0 - phi(p_init)`` (covering all in-flight old
    traffic) through ``t_last + settle`` travels hop by hop under the
    rule active at each departure: a switch updated at ``T`` applies its new
    rule to departures at times ``>= T``, its old rule before, and drops the
    unit when no rule applies.  Per-link loads accumulate along the way;
    capacity is then checked at every departure step from ``t0`` onward.

    Args:
        instance: The update instance.
        schedule: Update times (possibly partial -- missing switches keep
            their old rule forever, and the verdict reports the schedule as
            incomplete).
        background: Static per-link load from other flows, as
            ``(first departure, last departure, demand)`` triples with
            ``None`` bounds open -- the same shape
            :class:`~repro.core.intervals.IntervalTracker` accepts, so a
            plan and its verdict see the same other flows.
        extra_horizon: Additional steps to replay past the natural window.

    Returns:
        A :class:`Verdict` listing every loop, drop and over-capacity
        ``(link, interval, load)``.

    Raises:
        ValueError: ``extra_horizon`` is negative.
        KeyError: ``background`` loads a link the network does not have.
    """
    network = instance.network
    delays, capacities, settle, background = _checked_inputs(
        network, background, extra_horizon
    )
    update_times = dict(schedule.times)
    t0 = schedule.t0
    t_last = schedule.last_time
    old_config = instance.old_config
    new_config = instance.new_config
    source = instance.source
    destination = instance.destination
    demand = instance.demand
    max_hops = len(network) + 1

    # Walk the old configuration once to find the initial path delay --
    # derived here rather than taken from the instance's cached property so
    # the verifier stands on its own feet.
    old_path_delay = 0
    node = source
    for _ in range(max_hops):
        if node == destination:
            break
        nxt = old_config[node]  # validated at instance construction
        old_path_delay += delays[(node, nxt)]
        node = nxt

    emit_start = t0 - old_path_delay
    emit_end = t_last + settle + extra_horizon

    def walk(emission: int):
        """One emission's ``(link, departure)`` hops and how it ended:
        ``(hops, revisited switch or None, dropping switch or None)``."""
        hops: List[Tuple[LinkKey, int]] = []
        current = source
        time = emission
        visited = {source}
        for _ in range(max_hops):
            if current == destination:
                break
            when = update_times.get(current)
            if when is not None and time >= when:
                nxt = new_config.get(current)
            else:
                nxt = old_config.get(current)
            if nxt is None:
                return hops, None, current
            hops.append(((current, nxt), time))
            time += delays[(current, nxt)]
            if nxt in visited:
                return hops, nxt, None
            visited.add(nxt)
            current = nxt
        return hops, None, None

    loads: Dict[LinkKey, Dict[int, float]] = {}
    loops: List[LoopViolation] = []
    blackholes: List[BlackholeViolation] = []

    # Transient (emit_start <= t0 <= t_last): one walk per emission.
    for emission in range(emit_start, t_last):
        hops, revisited, dropped_at = walk(emission)
        for link, time in hops:
            series = loads.setdefault(link, {})
            series[time] = series.get(time, 0.0) + demand
        if revisited is not None:
            loops.append(LoopViolation(emission=emission, node=revisited))
        if dropped_at is not None:
            blackholes.append(BlackholeViolation(emission=emission, node=dropped_at))

    # Steady: the emission at t_last stands for every later one.
    hops, revisited, dropped_at = walk(t_last)
    steady = range(t_last, emit_end + 1)
    _replicate(loads, hops, len(steady), demand)
    if revisited is not None:
        loops.extend(LoopViolation(emission=e, node=revisited) for e in steady)
    if dropped_at is not None:
        blackholes.extend(BlackholeViolation(emission=e, node=dropped_at) for e in steady)

    congestion = _capacity_violations(loads, capacities, background, t0, emit_end)
    complete = all(node in update_times for node in instance.switches_to_update)
    return Verdict(
        schedule_complete=complete,
        loops=loops,
        blackholes=blackholes,
        congestion=congestion,
        loads=loads,
        check_start=t0,
        check_end=emit_end,
    )


def verify_two_phase(
    instance: UpdateInstance,
    flip_time: int,
    t0: Optional[int] = None,
    background: Optional[Background] = None,
    extra_horizon: int = 0,
) -> Verdict:
    """The same judgement under two-phase versioned-update semantics.

    Per-packet consistency: an emission stamped before ``flip_time`` travels
    the complete old path, one stamped at or after it the complete new path.
    Loops and drops are impossible by construction (both paths are valid
    end-to-end routes); what remains checkable is Definition 3 -- the new
    stream overtaking in-flight old traffic on a shared link.  There is no
    transient here: each side of the flip is one trajectory, replicated.

    Raises:
        ValueError: ``extra_horizon`` is negative.
        KeyError: ``background`` loads a link the network does not have.
    """
    if t0 is None:
        t0 = flip_time - 1
    delays, capacities, settle, background = _checked_inputs(
        instance.network, background, extra_horizon
    )
    old_path, new_path = instance.old_path, instance.new_path
    old_path_delay = sum(delays[link] for link in zip(old_path, old_path[1:]))
    emit_start = min(t0, flip_time) - old_path_delay
    emit_end = flip_time + settle + extra_horizon

    loads: Dict[LinkKey, Dict[int, float]] = {}
    _replicate(
        loads, _path_hops(old_path, delays, emit_start), flip_time - emit_start, instance.demand
    )
    _replicate(
        loads, _path_hops(new_path, delays, flip_time), emit_end - flip_time + 1, instance.demand
    )

    congestion = _capacity_violations(loads, capacities, background, t0, emit_end)
    return Verdict(
        schedule_complete=True,
        loops=[],
        blackholes=[],
        congestion=congestion,
        loads=loads,
        check_start=t0,
        check_end=emit_end,
    )


def verify_plan(instance: UpdateInstance, plan) -> Verdict:
    """Verify an :class:`repro.updates.registry.UpdatePlan` under its own semantics.

    Judges what the controller is handed (``plan.dispatched``).  The
    plan's registered planner supplies the verify adapter: two-phase
    planners route through :func:`verify_two_phase` (their nominal
    schedule describes versioned rule installs, not in-place
    replacements); every other scheme's schedule means exactly what
    :func:`verify_schedule` checks.  Plans of unregistered schemes fall
    back to :func:`verify_schedule`.
    """
    planner = plan.planner
    if planner is not None:
        return planner.verify(instance, plan.dispatched)
    return verify_schedule(instance, plan.dispatched)


def _checked_inputs(
    network: Network, background: Optional[Background], extra_horizon: int
) -> Tuple[Dict[LinkKey, int], Dict[LinkKey, float], int, Background]:
    """Reject arguments that would make the verdict vacuous or fail late.

    Returns the network's link delays and capacities, the settle time
    ``(|V| + 1) * max_delay`` and the background with ``None`` made ``{}``.
    """
    if extra_horizon < 0:
        # The window would end before it starts checking anything.
        raise ValueError(f"extra_horizon must be non-negative, got {extra_horizon}")
    delays = network.delay_map()
    capacities = network.capacity_map()
    background = background or {}
    for src, dst in background:
        if (src, dst) not in capacities:
            raise KeyError(f"background load on non-existent link {src!r} -> {dst!r}")
    settle = (len(network) + 1) * max(delays.values(), default=1)
    return delays, capacities, settle, background


def _path_hops(
    path: Sequence[Node], delays: Dict[LinkKey, int], emission: int
) -> List[Tuple[LinkKey, int]]:
    """``(link, departure)`` of the unit emitted at ``emission`` along ``path``."""
    hops = []
    time = emission
    for link in zip(path, path[1:]):
        hops.append((link, time))
        time += delays[link]
    return hops


def _replicate(
    loads: Dict[LinkKey, Dict[int, float]],
    hops: Sequence[Tuple[LinkKey, int]],
    count: int,
    demand: float,
) -> None:
    """Add ``demand`` along one emission's ``hops`` for ``count`` emissions:
    that one and the ``count - 1`` after it, each a step later.

    Equal, entry for entry and in dict order, to walking the emissions one
    by one: a hop's departures form one run of steps, filled in bulk; only
    the steps an earlier walk already wrote are read, added to and written
    back (they keep their place, fresh steps append in emission order).
    """
    if count <= 0:
        return
    fresh = 0.0 + demand  # what ``series.get(time, 0.0) + demand`` stores
    for link, lo in hops:
        hi = lo + count - 1
        series = loads.setdefault(link, {})
        written = {time: series[time] + demand for time in series if lo <= time <= hi}
        series.update(dict.fromkeys(range(lo, hi + 1), fresh))
        series.update(written)


def _capacity_violations(
    loads: Dict[LinkKey, Dict[int, float]],
    capacities: Dict[LinkKey, float],
    background: Background,
    check_start: int,
    check_end: int,
) -> List[CapacityViolation]:
    """Merge per-step over-capacity times into maximal violation intervals."""
    violations: List[CapacityViolation] = []
    links = set(loads) | set(background)
    for link in sorted(links):
        capacity = capacities[link]
        series = loads.get(link, {})
        extras = background.get(link, ())
        # No step's total can exceed the series peak plus every positive
        # background load, added in the order the scan adds them (float
        # addition is monotone, so the bound survives rounding).
        bound = max(series.values(), default=0.0)
        for _, _, load in extras:
            if load > 0:
                bound += load
        if not bound > capacity + _EPS:
            continue
        start: Optional[int] = None
        peak = 0.0
        previous = check_start - 1
        for time in range(check_start, check_end + 1):
            total = series.get(time, 0.0)
            for lo, hi, load in extras:
                if (lo is None or lo <= time) and (hi is None or time <= hi):
                    total += load
            if total > capacity + _EPS:
                if start is None:
                    start = time
                    peak = total
                else:
                    peak = max(peak, total)
                previous = time
            elif start is not None:
                violations.append(
                    CapacityViolation(
                        link=link, start=start, end=previous,
                        peak_load=peak, capacity=capacity,
                    )
                )
                start = None
        if start is not None:
            violations.append(
                CapacityViolation(
                    link=link, start=start, end=previous,
                    peak_load=peak, capacity=capacity,
                )
            )
    violations.sort(key=lambda violation: (violation.start, violation.link))
    return violations
