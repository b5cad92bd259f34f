"""Multi-flow update scheduling (the generality of program (3)'s flow set F).

The paper's formulation ranges over a set of flows, while its algorithms and
evaluation use one flow per update instance.  This module closes the gap:

* :class:`MultiFlowUpdate` bundles several single-flow update instances that
  share one network;
* :func:`validate_multiflow` checks congestion-freedom *across* flows
  exactly (per-flow trackers plus a joint per-link interval sweep) and
  loop-freedom per flow;
* :func:`greedy_multiflow` schedules the flows sequentially: each flow's
  Algorithm-2 run sees the (exact, time-varying) load of all previously
  scheduled flows as background.  Sequential composition is a heuristic --
  the joint problem only gets harder than the NP-complete single-flow MUTP
  -- but every schedule it emits is verified by the exact validator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.greedy import GreedyResult, greedy_schedule
from repro.core.instance import UpdateInstance
from repro.core.intervals import (
    CongestionSpan,
    IntervalTracker,
    LinkKey,
    _sweep_link,
)
from repro.core.schedule import UpdateSchedule
from repro.network.graph import Network, Node

Background = Dict[LinkKey, List[Tuple[Optional[int], Optional[int], float]]]


@dataclass
class MultiFlowUpdate:
    """Several update instances over one shared network.

    Attributes:
        network: The common substrate (every instance must reference it).
        instances: One single-flow update instance per flow; flow names must
            be unique.
    """

    network: Network
    instances: List[UpdateInstance]

    def __post_init__(self) -> None:
        names = [inst.flow.name for inst in self.instances]
        if len(set(names)) != len(names):
            raise ValueError("flow names must be unique")
        for inst in self.instances:
            if inst.network is not self.network:
                raise ValueError(
                    f"instance {inst.flow.name!r} does not share the network"
                )

    def instance(self, flow_name: str) -> UpdateInstance:
        for inst in self.instances:
            if inst.flow.name == flow_name:
                return inst
        raise KeyError(f"no flow {flow_name!r}")


@dataclass
class MultiFlowReport:
    """Joint validation outcome.

    Attributes:
        congestion: Cross-flow capacity violations (joint link sweeps).
        loops: Per-flow forwarding-loop events.
        blackholes: Per-flow dropped-traffic events.
    """

    congestion: List[CongestionSpan]
    loops: Dict[str, List[Tuple[int, Node]]]
    blackholes: Dict[str, List[Tuple[int, Node]]]

    @property
    def ok(self) -> bool:
        return (
            not self.congestion
            and not any(self.loops.values())
            and not any(self.blackholes.values())
        )


def flow_link_intervals(tracker: IntervalTracker) -> Background:
    """The exact per-link departure intervals of one flow's final state.

    Reads the dict layout (``FlowClass.links`` / ``departure_interval``),
    which is why this module replays on :class:`IntervalTracker` directly
    rather than through :func:`repro.core.tracker.make_tracker`.
    """
    out: Background = {}
    demand = tracker.instance.demand
    for cls in tracker.classes:
        for index, link in cls.links():
            lo, hi = cls.departure_interval(index)
            out.setdefault(link, []).append((lo, hi, demand))
    return out


def _replay(instance: UpdateInstance, schedule: UpdateSchedule) -> IntervalTracker:
    tracker = IntervalTracker(instance, t0=schedule.t0)
    for when, nodes in schedule.rounds():
        tracker.apply_round(nodes, when)
    return tracker


def validate_multiflow(
    update: MultiFlowUpdate,
    schedules: Mapping[str, UpdateSchedule],
) -> MultiFlowReport:
    """Exactly validate a joint schedule assignment.

    Args:
        update: The multi-flow update.
        schedules: One complete schedule per flow name.

    Returns:
        A :class:`MultiFlowReport`; ``report.ok`` means every flow stays
        loop-free and no link ever exceeds its capacity under the *combined*
        load of all flows.
    """
    trackers: Dict[str, IntervalTracker] = {}
    for inst in update.instances:
        schedule = schedules.get(inst.flow.name)
        if schedule is None:
            raise KeyError(f"missing schedule for flow {inst.flow.name!r}")
        trackers[inst.flow.name] = _replay(inst, schedule)

    joint: Background = {}
    for tracker in trackers.values():
        for link, intervals in flow_link_intervals(tracker).items():
            joint.setdefault(link, []).extend(intervals)

    t0 = min((schedules[name].t0 for name in trackers), default=0)
    congestion: List[CongestionSpan] = []
    for link, intervals in sorted(joint.items()):
        capacity = update.network.capacity(*link)
        congestion.extend(_sweep_link(link, capacity, intervals, t0))

    return MultiFlowReport(
        congestion=congestion,
        loops={name: tracker.loops for name, tracker in trackers.items()},
        blackholes={name: tracker.blackholes for name, tracker in trackers.items()},
    )


@dataclass
class MultiFlowResult:
    """Outcome of the sequential multi-flow scheduler."""

    results: Dict[str, GreedyResult]
    report: MultiFlowReport

    @property
    def schedules(self) -> Dict[str, UpdateSchedule]:
        return {name: result.schedule for name, result in self.results.items()}

    @property
    def feasible(self) -> bool:
        """All flows scheduled consistently, including cross-flow capacity."""
        return self.report.ok and all(r.feasible for r in self.results.values())

    @property
    def makespan(self) -> int:
        spans = [r.schedule.makespan for r in self.results.values()]
        return max(spans, default=0)


def greedy_multiflow(
    update: MultiFlowUpdate,
    t0: int = 0,
    order: Optional[Sequence[str]] = None,
) -> MultiFlowResult:
    """Schedule every flow with Algorithm 2, sequentially composed.

    Flow *i*'s scheduler sees the exact final-state load of flows
    ``0..i-1`` as per-link background intervals, so its congestion checks
    are joint; the result is re-validated globally at the end.

    Args:
        update: The multi-flow update.
        t0: Earliest update time for every flow.
        order: Scheduling order by flow name (default: given order).
    """
    names = list(order) if order is not None else [
        inst.flow.name for inst in update.instances
    ]
    background: Background = {}
    results: Dict[str, GreedyResult] = {}
    for name in names:
        instance = update.instance(name)
        result = greedy_schedule(instance, t0=t0, background=background)
        results[name] = result
        tracker = _replay(instance, result.schedule)
        for link, intervals in flow_link_intervals(tracker).items():
            background.setdefault(link, []).extend(intervals)

    report = validate_multiflow(
        update, {name: result.schedule for name, result in results.items()}
    )
    return MultiFlowResult(results=results, report=report)
