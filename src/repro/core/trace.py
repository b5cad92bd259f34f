"""Ground-truth dynamic-flow tracer.

This module pins down the paper's dynamic-flow semantics (Definitions 1-3)
as an executable oracle: the source emits ``d`` units of flow at every
discrete time step; a unit departing switch ``u`` at time ``t`` over link
``(u, v)`` arrives -- and immediately departs -- ``v`` at ``t + sigma_{u,v}``;
a switch updated at time ``T`` applies its *new* rule to departures at times
``>= T``.  Tracing every emission through a (possibly partial) schedule
yields exact per-link loads over time, from which congestion events
(Definition 3), forwarding loops (Definition 2) and black holes follow.

The tracer is quadratic in the network size and meant as the *oracle* for
tests and small instances; :mod:`repro.core.intervals` provides the
equivalent scalable implementation used by the schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.network.graph import Node

LinkKey = Tuple[Node, Node]

_EPS = 1e-9


@dataclass(frozen=True)
class CongestionEvent:
    """Link ``link`` exceeded its capacity at departure time ``time``."""

    link: LinkKey
    time: int
    load: float
    capacity: float


@dataclass(frozen=True)
class LoopEvent:
    """The unit emitted at ``emission`` revisited switch ``node``."""

    emission: int
    node: Node


@dataclass(frozen=True)
class BlackholeEvent:
    """The unit emitted at ``emission`` reached ``node`` which had no rule."""

    emission: int
    node: Node


@dataclass
class TraceResult:
    """Everything the tracer observed over the checked window.

    Attributes:
        loads: Per-link, per-departure-time flow loads.
        congestion: All capacity violations at times ``>= check_start``.
        loops: Forwarding-loop events (Definition 2 violations).
        blackholes: Units dropped at switches without an applicable rule.
        check_start: First time step at which loads are complete and checked.
        check_end: Last checked time step.
    """

    loads: Dict[LinkKey, Dict[int, float]]
    congestion: List[CongestionEvent]
    loops: List[LoopEvent]
    blackholes: List[BlackholeEvent]
    check_start: int
    check_end: int

    @property
    def congestion_free(self) -> bool:
        return not self.congestion

    @property
    def loop_free(self) -> bool:
        return not self.loops

    @property
    def drop_free(self) -> bool:
        return not self.blackholes

    @property
    def ok(self) -> bool:
        """Congestion-free, loop-free and drop-free."""
        return self.congestion_free and self.loop_free and self.drop_free

    @property
    def congested_timed_links(self) -> Set[Tuple[LinkKey, int]]:
        """Distinct ``(link, time)`` pairs over capacity -- Fig. 8's unit."""
        return {(event.link, event.time) for event in self.congestion}

    def load_series(self, src: Node, dst: Node) -> Dict[int, float]:
        """Departure-time load series of one link."""
        return dict(self.loads.get((src, dst), {}))

    def peak_load(self, src: Node, dst: Node) -> float:
        """Maximum observed load on one link."""
        series = self.loads.get((src, dst))
        if not series:
            return 0.0
        return max(series.values())


def active_next_hop(
    instance: UpdateInstance,
    update_times: Mapping[Node, int],
    node: Node,
    time: int,
) -> Optional[Node]:
    """The rule ``node`` applies to a departure at ``time``.

    New rule once the switch's update time has passed, old rule before, and
    ``None`` when no applicable rule exists (black hole).
    """
    when = update_times.get(node)
    if when is not None and time >= when:
        return instance.new_config.get(node)
    return instance.old_config.get(node)


def trace_schedule(
    instance: UpdateInstance,
    schedule: UpdateSchedule,
    extra_horizon: int = 0,
) -> TraceResult:
    """Trace the dynamic flow through ``schedule`` and report violations.

    Switches missing from the schedule keep their old rule forever, which
    makes the tracer directly usable on *partial* schedules (the greedy
    algorithm's intermediate states).

    Emissions start early enough (``t0 - phi(p_init)``) that every unit of
    in-flight old traffic is covered, and continue long enough past the last
    update for the new routing to reach steady state.  Loads are complete --
    and therefore checked -- from ``t0`` through the end of the window.

    Args:
        instance: The update instance.
        schedule: Update times (possibly partial).
        extra_horizon: Additional steps to trace beyond the natural window.

    Returns:
        A :class:`TraceResult`; ``result.ok`` is the paper's transient
        consistency criterion.
    """
    network = instance.network
    update_times = schedule.as_dict()
    t0 = schedule.t0
    t_last = schedule.last_time

    max_delay = max(network.delay_map().values(), default=1)
    settle = (len(network) + 1) * max_delay
    emit_start = t0 - instance.old_path_delay
    emit_end = t_last + settle + extra_horizon

    demand = instance.demand
    max_hops = len(network) + 1

    loads: Dict[LinkKey, Dict[int, float]] = {}
    loops: List[LoopEvent] = []
    blackholes: List[BlackholeEvent] = []

    source = instance.source
    destination = instance.destination

    for emission in range(emit_start, emit_end + 1):
        current = source
        time = emission
        visited = {source}
        for _ in range(max_hops):
            if current == destination:
                break
            nxt = active_next_hop(instance, update_times, current, time)
            if nxt is None:
                blackholes.append(BlackholeEvent(emission=emission, node=current))
                break
            link_loads = loads.setdefault((current, nxt), {})
            link_loads[time] = link_loads.get(time, 0.0) + demand
            time += network.delay(current, nxt)
            if nxt in visited:
                loops.append(LoopEvent(emission=emission, node=nxt))
                break
            visited.add(nxt)
            current = nxt

    congestion: List[CongestionEvent] = []
    for link_key, series in loads.items():
        capacity = network.capacity(*link_key)
        for time, load in series.items():
            if t0 <= time <= emit_end and load > capacity + _EPS:
                congestion.append(
                    CongestionEvent(link=link_key, time=time, load=load, capacity=capacity)
                )
    congestion.sort(key=lambda event: (event.time, event.link))

    return TraceResult(
        loads=loads,
        congestion=congestion,
        loops=loops,
        blackholes=blackholes,
        check_start=t0,
        check_end=emit_end,
    )


def validate_schedule(instance: UpdateInstance, schedule: UpdateSchedule) -> TraceResult:
    """Alias of :func:`trace_schedule` emphasising its validator role.

    A schedule is a correct solution of the paper's problem iff the returned
    result satisfies ``result.ok`` *and* the schedule covers every switch in
    ``instance.switches_to_update``.
    """
    return trace_schedule(instance, schedule)


def is_complete(instance: UpdateInstance, schedule: UpdateSchedule) -> bool:
    """Whether ``schedule`` assigns a time to every switch needing an update."""
    return all(node in schedule for node in instance.switches_to_update)
