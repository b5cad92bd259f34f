"""Reference replay for :mod:`repro.validate.verifier` (test oracle only).

This is the verifier as it stood before the transient/steady split: every
emission of the window is walked hop by hop and every ``(link, step)`` of
the check window is scanned.  It costs O(network x hops) per schedule and
is obviously right; ``tests/test_verifier_equivalence.py`` requires the
production verifier to return an equal :class:`Verdict` -- same ``loads``,
same violations in the same order, same floats.  It takes the arguments
the production functions accept and validates none of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.core.verdict import (
    BlackholeViolation,
    CapacityViolation,
    LoopViolation,
    Verdict,
)

_EPS = 1e-9


def reference_verify_schedule(
    instance: UpdateInstance,
    schedule: UpdateSchedule,
    background=None,
    extra_horizon: int = 0,
) -> Verdict:
    update_times = dict(schedule.times)
    t0 = schedule.t0
    t_last = schedule.last_time
    old_config = instance.old_config
    new_config = instance.new_config
    source = instance.source
    destination = instance.destination
    demand = instance.demand
    network = instance.network

    delays = {}
    capacities = {}
    for link in network.links:
        delays[(link.src, link.dst)] = link.delay
        capacities[(link.src, link.dst)] = link.capacity

    old_path_delay = 0
    node = source
    for _ in range(len(network) + 1):
        if node == destination:
            break
        nxt = old_config[node]
        old_path_delay += delays[(node, nxt)]
        node = nxt

    max_delay = max(delays.values(), default=1)
    settle = (len(network) + 1) * max_delay
    emit_start = t0 - old_path_delay
    emit_end = t_last + settle + extra_horizon
    max_hops = len(network) + 1

    loads: Dict = {}
    loops: List[LoopViolation] = []
    blackholes: List[BlackholeViolation] = []

    for emission in range(emit_start, emit_end + 1):
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
                blackholes.append(BlackholeViolation(emission=emission, node=current))
                break
            series = loads.setdefault((current, nxt), {})
            series[time] = series.get(time, 0.0) + demand
            time += delays[(current, nxt)]
            if nxt in visited:
                loops.append(LoopViolation(emission=emission, node=nxt))
                break
            visited.add(nxt)
            current = nxt

    congestion = reference_capacity_violations(
        loads, capacities, background or {}, t0, emit_end
    )
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


def reference_verify_two_phase(
    instance: UpdateInstance,
    flip_time: int,
    t0: Optional[int] = None,
    background=None,
    extra_horizon: int = 0,
) -> Verdict:
    if t0 is None:
        t0 = flip_time - 1
    network = instance.network
    demand = instance.demand

    delays = {}
    capacities = {}
    for link in network.links:
        delays[(link.src, link.dst)] = link.delay
        capacities[(link.src, link.dst)] = link.capacity

    old_links = list(zip(instance.old_path, instance.old_path[1:]))
    new_links = list(zip(instance.new_path, instance.new_path[1:]))
    old_path_delay = sum(delays[link] for link in old_links)
    max_delay = max(delays.values(), default=1)
    settle = (len(network) + 1) * max_delay
    emit_start = min(t0, flip_time) - old_path_delay
    emit_end = flip_time + settle + extra_horizon

    loads: Dict = {}
    for emission in range(emit_start, emit_end + 1):
        links = old_links if emission < flip_time else new_links
        time = emission
        for link in links:
            series = loads.setdefault(link, {})
            series[time] = series.get(time, 0.0) + demand
            time += delays[link]

    congestion = reference_capacity_violations(
        loads, capacities, background or {}, t0, emit_end
    )
    return Verdict(
        schedule_complete=True,
        loops=[],
        blackholes=[],
        congestion=congestion,
        loads=loads,
        check_start=t0,
        check_end=emit_end,
    )


def reference_capacity_violations(
    loads, capacities, background, check_start: int, check_end: int
) -> List[CapacityViolation]:
    """Plain per-step merge of over-capacity times into maximal intervals."""
    violations: List[CapacityViolation] = []
    links = set(loads) | set(background)
    for link in sorted(links):
        capacity = capacities[link]
        series = loads.get(link, {})
        extras = background.get(link, ())
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
