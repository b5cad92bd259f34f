"""Multi-flow update scheduling (the generality of program (3)'s flow set F).

The paper's formulation ranges over a set of flows, while its algorithms and
evaluation use one flow per update instance.  This module closes the gap:

* :class:`MultiFlowUpdate` bundles several single-flow update instances that
  share one network;
* :func:`validate_multiflow` checks congestion-freedom *across* flows
  exactly (each flow's schedule replayed by
  :func:`repro.core.tracker.replay_schedule`, then one joint per-link
  interval sweep) and loop-freedom per flow;
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
from repro.core.intervals import CongestionSpan, LinkKey, _sweep_link
from repro.core.schedule import UpdateSchedule
from repro.core.tracker import Tracker, replay_schedule
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


def flow_link_intervals(tracker: Tracker) -> Background:
    """The exact per-link departure intervals of one flow's final state.

    Every hop of a trajectory follows an old or a new rule, so the rule
    links of the instance are the only links that can carry its load.
    """
    instance = tracker.instance
    demand = instance.demand
    rules = dict.fromkeys([*instance.old_config.items(), *instance.new_config.items()])
    out: Background = {}
    for link in rules:
        spans = tracker.link_departure_spans(*link)
        if spans:
            out[link] = [(lo, hi, demand) for lo, hi in spans]
    return out


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
    trackers: Dict[str, Tracker] = {}
    for inst in update.instances:
        schedule = schedules.get(inst.flow.name)
        if schedule is None:
            raise KeyError(f"missing schedule for flow {inst.flow.name!r}")
        trackers[inst.flow.name] = replay_schedule(inst, schedule)

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
        tracker = replay_schedule(instance, result.schedule)
        for link, intervals in flow_link_intervals(tracker).items():
            background.setdefault(link, []).extend(intervals)

    report = validate_multiflow(
        update, {name: result.schedule for name, result in results.items()}
    )
    return MultiFlowResult(results=results, report=report)
