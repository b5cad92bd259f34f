"""Fig. 6: link bandwidth consumption over time during an update.

Paper setup (Section V-A): Mininet with 10 switches, 5 Mbps links, a 5 Mbps
aggregate flow, link delays between 5 ms and 1 s; bandwidth measured by
polling byte counters every second.  OR's asynchronous rounds push the
hottest link to ~6 Mbps (beyond capacity -> loss), while Chronus and TP stay
within the normal range.

Here the same scenario runs on the fluid data plane, every scheme through
:func:`repro.controller.resilient.execute_plan`: Chronus executes its timed
schedule via Time4-style scheduled FlowMods, TP flips the ingress tag after
its versioned rules are acknowledged, and OR pushes round by round through
the asynchronous control channel with Dionysus-shaped installation
latencies.

Pipeline scenario ``fig6``: one record per scheme (the bandwidth series of
the hottest link plus the peak utilisation); because the execution runs on
the discrete-event plane, the run context's optional fault severity is
honoured -- ``run --fault-severity 0.5 fig6`` replays the same update over
a lossy control channel, with retries and an abort at the ``duration``
horizon, and the record then also says ``completed`` / ``aborted`` /
``retries``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.controller import (
    ConstantDelayModel,
    DionysusDelayModel,
    build_testbed,
    execute_plan,
    synchronized_clocks,
)
from repro.core.instance import UpdateInstance, instance_from_topology
from repro.network.topology import two_path_topology
from repro.pipeline.context import WorkerContext
from repro.pipeline.scenario import Scenario, register
from repro.simulator import BandwidthMonitor
from repro.analysis.timeseries import render_series
from repro.updates.registry import get_planner, planners_for

SCHEMES = ("chronus", "tp", "or")

#: Per-scheme RNG stream indices.  The legacy trio keeps its historic
#: streams (their recorded series depend on them); any other registered
#: scheme gets a stable stream derived from its sweep order.
_RNG_STREAM = {name: index for index, name in enumerate(SCHEMES)}

#: Cap of the Dionysus-shaped installation latency, in seconds; a retry
#: waits twice that, so on a loss-free channel none ever fires.
_INSTALL_CAP = 2.0

#: Seconds before ``update_at`` at which the controller acts: timed FlowMods
#: and two-phase shadow installs ship with this headroom.
_LEAD_TIME = 0.5

#: Steps from ``update_at`` to the two-phase ingress flip (the shadow
#: installs must be acknowledged first).
_FLIP_DELAY = 3


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


def _instance(params: Mapping) -> UpdateInstance:
    """The (seed-regenerated) rerouted topology every scheme runs on."""
    capacity = float(params["capacity_mbps"])
    topo = two_path_topology(
        int(params["switch_count"]),
        rng=random.Random(int(params["seed"])),
        capacity=capacity,
        max_delay=int(params["max_delay_steps"]),
    )
    return instance_from_topology(topo, demand=capacity)


def _evaluate(item: Mapping, params: Mapping, ctx: WorkerContext) -> Dict[str, object]:
    """Run one scheme on the scenario's instance."""
    capacity = float(params["capacity_mbps"])
    monitor, testbed, trace = _run_scheme(
        str(item["scheme"]),
        _instance(params),
        int(params["seed"]),
        float(params["duration"]),
        float(params["update_at"]),
        float(params["delay_scale"]),
        fault_severity=ctx.fault_severity,
    )
    hottest = monitor.peak_series()
    record = {
        "key": item["key"],
        "scheme": item["scheme"],
        "series": [[s.time, s.mbps] for s in hottest],
        "peak": max(link.peak_utilization() for link in testbed.plane.links.values()),
        "capacity": capacity,
    }
    if ctx.fault_severity:
        # Only under faults, so the fault-free record stays byte-identical.
        record.update(
            completed=trace.completed,
            aborted=trace.aborted,
            retries=trace.total_retries,
        )
    return record


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


def _run_scheme(
    scheme: str,
    instance: UpdateInstance,
    seed: int,
    duration: float,
    update_at: float,
    delay_scale: float,
    fault_severity: Optional[float] = None,
):
    """Execute ``scheme``'s plan on a monitored plane; step ``t0`` is ``update_at``."""
    planner = get_planner(scheme)
    stream = _RNG_STREAM.get(scheme, 3 + planner.sweep_order)
    rng = random.Random(seed * 1009 + stream * 997)
    fault_plan = None
    if fault_severity:
        from repro.faults import FaultPlan, severity_spec

        fault_plan = FaultPlan(
            severity_spec(fault_severity, crash_window=(update_at, duration)),
            seed=seed ^ 0xFA17,
        )
    testbed = build_testbed(
        instance,
        delay_scale=delay_scale,
        network_delay=ConstantDelayModel(0.002),
        install_delay=DionysusDelayModel(median=0.3, sigma=1.0, cap=_INSTALL_CAP),
        rng=rng,
        clocks=synchronized_clocks(instance.network.switches, max_offset=1e-6, rng=rng),
        fault_plan=fault_plan,
    )
    monitor = BandwidthMonitor(testbed.plane, interval=1.0)
    monitor.start()
    testbed.sim.run(until=update_at - _LEAD_TIME)

    # No ``rng``: the asynchrony is the channel's, so planning draws nothing
    # from the scheme's stream.
    plan = planner.plan(instance, flip_delay=_FLIP_DELAY)
    # The horizon is the deadline: an update still unacknowledged when the
    # simulation ends is aborted (its barrier waiters expired), not left open.
    trace = execute_plan(
        testbed.controller, testbed.plane, plan,
        start_at=update_at, time_unit=delay_scale,
        retry_timeout=2 * _INSTALL_CAP,
        deadline=duration,
    )

    testbed.sim.run(until=duration)
    monitor.stop()  # drain the poll loop so later open-ended runs terminate
    return monitor, testbed, trace
