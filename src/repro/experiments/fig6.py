"""Fig. 6: link bandwidth consumption over time during an update.

Paper setup (Section V-A): Mininet with 10 switches, 5 Mbps links, a 5 Mbps
aggregate flow, link delays between 5 ms and 1 s; bandwidth measured by
polling byte counters every second.  OR's asynchronous rounds push the
hottest link to ~6 Mbps (beyond capacity -> loss), while Chronus and TP stay
within the normal range.

Here the same scenario runs on the fluid data plane: Chronus executes its
timed schedule via Time4-style scheduled FlowMods, TP flips the ingress tag
after installing the versioned rules, and OR pushes round by round through
the asynchronous control channel with Dionysus-shaped installation
latencies.

Pipeline scenario ``fig6``: one record per scheme (the bandwidth series of
the hottest link plus the peak utilisation); because the execution runs on
the discrete-event plane, the run context's optional fault severity is
honoured -- ``run --fault-severity 0.5 fig6`` replays the same update over
a lossy control channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.controller import (
    ConstantDelayModel,
    ControlChannel,
    Controller,
    DionysusDelayModel,
    perform_round_update,
    perform_timed_update,
    synchronized_clocks,
)
from repro.core.instance import UpdateInstance, instance_from_topology
from repro.network.topology import two_path_topology
from repro.pipeline.context import RunContext, WorkerContext
from repro.pipeline.runner import run_in_memory
from repro.pipeline.scenario import Scenario, register
from repro.simulator import BandwidthMonitor, Simulator, build_dataplane
from repro.simulator.dataplane import install_config
from repro.simulator.flowtable import FlowRule, Match
from repro.analysis.timeseries import render_series
from repro.updates.registry import ROUNDS, TWO_PHASE, get_planner, planners_for

SCHEMES = ("chronus", "tp", "or")

#: Per-scheme RNG stream indices.  The legacy trio keeps its historic
#: streams (their recorded series depend on them); any other registered
#: scheme gets a stable stream derived from its sweep order.
_RNG_STREAM = {name: index for index, name in enumerate(SCHEMES)}


@dataclass
class Fig6Result:
    """Bandwidth series of the hottest link per scheme."""

    series: Dict[str, List[Tuple[float, float]]]
    peaks: Dict[str, float]
    capacity: float

    def render(self) -> str:
        table = render_series(
            {name: points for name, points in self.series.items()},
            title=(
                "Fig. 6 -- bandwidth consumption (hottest link) during the "
                f"update; link capacity {self.capacity} Mbps"
            ),
        )
        peaks = ", ".join(f"{k}={v:.2f}" for k, v in self.peaks.items())
        return table + f"\npeaks: {peaks} Mbps"


def _items(params: Mapping) -> List[Dict[str, object]]:
    planners_for(params["schemes"])  # fail fast on unregistered names
    return [{"key": scheme, "scheme": scheme} for scheme in params["schemes"]]


def _evaluate(item: Mapping, params: Mapping, ctx: WorkerContext) -> Dict[str, object]:
    """Run one scheme on the (seed-regenerated) rerouted topology."""
    seed = int(params["seed"])
    capacity = float(params["capacity_mbps"])
    topo = two_path_topology(
        int(params["switch_count"]),
        rng=random.Random(seed),
        capacity=capacity,
        max_delay=int(params["max_delay_steps"]),
    )
    instance = instance_from_topology(topo, demand=capacity)
    monitor, plane = _run_scheme(
        str(item["scheme"]),
        instance,
        seed,
        float(params["duration"]),
        float(params["update_at"]),
        float(params["delay_scale"]),
        fault_severity=ctx.fault_severity,
    )
    hottest = monitor.peak_series()
    return {
        "key": item["key"],
        "scheme": item["scheme"],
        "series": [[s.time, s.mbps] for s in hottest],
        "peak": max(plane.links[link].peak_utilization() for link in plane.links),
        "capacity": capacity,
    }


def _aggregate(records: Sequence[Mapping], params: Mapping) -> Fig6Result:
    series = {
        str(r["scheme"]): [(float(t), float(m)) for t, m in r["series"]]
        for r in records
    }
    peaks = {str(r["scheme"]): float(r["peak"]) for r in records}
    return Fig6Result(
        series=series, peaks=peaks, capacity=float(params["capacity_mbps"])
    )


SCENARIO = register(
    Scenario(
        name="fig6",
        title="Link bandwidth consumption over time during an update",
        paper="Fig. 6",
        description=(
            "One discrete-event execution per scheme on the same rerouted "
            "10-switch topology; records carry the hottest link's bandwidth "
            "series and the peak utilisation."
        ),
        defaults={
            "schemes": SCHEMES,
            "seed": 3,
            "switch_count": 10,
            "capacity_mbps": 5.0,
            "duration": 30.0,
            "update_at": 5.0,
            "delay_scale": 1.0,
            "max_delay_steps": 3,
        },
        items=_items,
        evaluate=_evaluate,
        aggregate=_aggregate,
        paper_params={"duration": 60.0},
    )
)


def run_fig6(
    seed: int = 3,
    switch_count: int = 10,
    capacity_mbps: float = 5.0,
    duration: float = 30.0,
    update_at: float = 5.0,
    delay_scale: float = 1.0,
    max_delay_steps: int = 3,
) -> Fig6Result:
    """Run the three schemes on one randomly rerouted 10-switch topology.

    Args:
        seed: Seeds topology, final path and all latencies.
        switch_count: Switches on the initial path (paper: 10).
        capacity_mbps: Link capacity and flow rate (paper: 5 Mbps).
        duration: Simulated seconds per scheme.
        update_at: True time the update begins.
        delay_scale: Seconds per model time step (link delays become
            ``step * delay_scale`` seconds, paper range 5 ms - 1 s).
        max_delay_steps: Link delays drawn from ``[1, max_delay_steps]``.
    """
    return run_in_memory(
        "fig6",
        overrides={
            "seed": seed,
            "switch_count": switch_count,
            "capacity_mbps": capacity_mbps,
            "duration": duration,
            "update_at": update_at,
            "delay_scale": delay_scale,
            "max_delay_steps": max_delay_steps,
        },
        ctx=RunContext(),
    )


def _run_scheme(
    scheme: str,
    instance: UpdateInstance,
    seed: int,
    duration: float,
    update_at: float,
    delay_scale: float,
    fault_severity: Optional[float] = None,
):
    planner = get_planner(scheme)
    stream = _RNG_STREAM.get(scheme, 3 + planner.sweep_order)
    rng = random.Random(seed * 1009 + stream * 997)
    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=delay_scale)
    install_config(plane, instance)
    fault_plan = None
    if fault_severity:
        from repro.faults import FaultPlan, FaultyChannel, severity_spec

        fault_plan = FaultPlan(
            severity_spec(fault_severity, crash_window=(update_at, duration)),
            seed=seed ^ 0xFA17,
        )
        channel = FaultyChannel(
            sim,
            fault_plan,
            network_delay=ConstantDelayModel(0.002),
            install_delay=DionysusDelayModel(median=0.3, sigma=1.0, cap=2.0),
            rng=rng,
        )
    else:
        channel = ControlChannel(
            sim,
            network_delay=ConstantDelayModel(0.002),
            install_delay=DionysusDelayModel(median=0.3, sigma=1.0, cap=2.0),
            rng=rng,
        )
    clocks = synchronized_clocks(instance.network.switches, max_offset=1e-6, rng=rng)
    controller = Controller(sim, channel, clocks)
    for switch in plane.switches.values():
        controller.manage(switch)
    if fault_plan is not None:
        fault_plan.wire(controller)
    plane.inject_flow(
        instance.source, "h1", str(instance.destination), rate=instance.demand
    )
    monitor = BandwidthMonitor(plane, interval=1.0)
    monitor.start()
    sim.run(until=update_at)

    if planner.executor == TWO_PHASE:
        _run_two_phase(sim, plane, controller, instance, update_at)
    elif planner.executor == ROUNDS:
        # No ``rng``: the asynchrony is the channel's, so planning must draw
        # nothing from the scheme's stream.
        perform_round_update(
            controller, plane, instance, planner.plan(instance).dispatched, time_unit=1.0
        )
    else:
        schedule = planner.plan(instance, rng=rng).schedule
        perform_timed_update(
            controller, plane, instance, schedule, time_unit=delay_scale,
            start_at=update_at + 0.5,
        )

    sim.run(until=duration)
    monitor.stop()  # drain the poll loop so later open-ended runs terminate
    return monitor, plane


def _run_two_phase(sim, plane, controller, instance: UpdateInstance, update_at: float) -> None:
    """Two-phase execution: versioned rules, ingress flip, then cleanup.

    Phase 1 installs the tagged new configuration (traffic-invisible);
    phase 2 flips the ingress stamp; once the untagged traffic drained, the
    old-version rules are deleted -- completing the full two-phase protocol
    including its table-space release.
    """
    from repro.controller.messages import (
        FlowModAdd,
        FlowModDelete,
        FlowModModify,
        next_xid,
    )

    new_tag = 2
    dst_prefix = str(instance.destination)
    # Phase 1: install tagged copies of the new configuration everywhere.
    for node, nxt in instance.new_config.items():
        rule = FlowRule(
            name=f"{instance.flow.name}#v2",
            match=Match(dst_prefix=dst_prefix, tag=new_tag),
            out_port=plane.port_of(node, nxt),
            priority=1,
        )
        controller.send_flow_mod(node, FlowModAdd(xid=next_xid(), rule=rule))
    from repro.simulator.switch import HOST_PORT

    controller.send_flow_mod(
        instance.destination,
        FlowModAdd(
            xid=next_xid(),
            rule=FlowRule(
                name=f"{instance.flow.name}#v2",
                match=Match(dst_prefix=dst_prefix, tag=new_tag),
                out_port=HOST_PORT,
                priority=1,
            ),
        ),
    )

    # Phase 2 (after the rules settled): stamp new packets at the ingress.
    def flip() -> None:
        controller.send_flow_mod(
            instance.source,
            FlowModModify(
                xid=next_xid(),
                rule_name=instance.flow.name,
                out_port=plane.port_of(instance.source, instance.new_next_hop(instance.source)),
                set_tag=new_tag,
            ),
        )

    # Cleanup: remove the old-version rules once untagged traffic drained
    # (the ingress keeps its -- now stamping -- rule).
    def cleanup() -> None:
        for node in instance.old_config:
            if node == instance.source:
                continue
            controller.send_flow_mod(
                node, FlowModDelete(xid=next_xid(), rule_name=instance.flow.name)
            )

    sim.schedule_at(update_at + 3.0, flip)
    sim.schedule_at(update_at + 6.0 + instance.old_path_delay, cleanup)


def main() -> str:
    result = run_fig6()
    text = result.render()
    print(text)
    return text


if __name__ == "__main__":
    main()
