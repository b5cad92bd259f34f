"""Emulated testbed run: Chronus vs. OR on the SDN data plane.

The Mininet-experiment analogue (Section V-A): a 10-switch topology with
5 Mbps links carrying a 5 Mbps flow.  Both plans go through the one
execution path, ``execute_plan``, which reads the planner's ``executor``
flag: Chronus ships Time4-style scheduled FlowMods; OR pushes
barrier-separated rounds through an asynchronous control channel with
Dionysus-shaped installation latencies.  A bandwidth monitor polls byte
counters every second, exactly like the Floodlight statistics module.

Run:  python examples/emulation.py
"""

import random

from repro.controller import (
    ConstantDelayModel,
    DionysusDelayModel,
    build_testbed,
    execute_plan,
    synchronized_clocks,
)
from repro.core.instance import instance_from_topology
from repro.network.topology import two_path_topology
from repro.simulator import BandwidthMonitor
from repro.updates import get_planner

CAPACITY_MBPS = 5.0
SEED = 11


def build_world(scheme_seed: int):
    """One data plane + controller + monitored 5 Mbps flow."""
    topo = two_path_topology(
        10, rng=random.Random(SEED), capacity=CAPACITY_MBPS, max_delay=3
    )
    instance = instance_from_topology(topo, demand=CAPACITY_MBPS)
    rng = random.Random(scheme_seed)
    sim, plane, controller = build_testbed(
        instance,
        network_delay=ConstantDelayModel(0.002),
        install_delay=DionysusDelayModel(median=0.3, sigma=1.0, cap=2.0),
        rng=rng,
        clocks=synchronized_clocks(instance.network.switches, max_offset=1e-6, rng=rng),
    )
    monitor = BandwidthMonitor(plane, interval=1.0)
    monitor.start()
    return instance, sim, plane, controller, monitor


def main() -> None:
    # --- Chronus: timed execution ------------------------------------
    instance, sim, plane, controller, monitor = build_world(101)
    sim.run(until=5.0)
    plan = get_planner("chronus").plan(instance)
    trace = execute_plan(controller, plane, plan, start_at=6.0)
    sim.run(until=30.0)
    monitor.stop()
    chronus_peak = max(plane.links[l].peak_utilization() for l in plane.links)
    print(f"Chronus: schedule {plan.schedule}")
    print(f"  peak link utilisation {chronus_peak:.2f} / {CAPACITY_MBPS:.0f} Mbps, "
          f"max clock skew {trace.max_skew * 1e6:.1f} us")

    # --- OR: asynchronous rounds --------------------------------------
    instance, sim, plane, controller, monitor = build_world(202)
    sim.run(until=5.0)
    plan = get_planner("or").plan(instance)
    execute_plan(controller, plane, plan, start_at=5.0)
    sim.run(until=30.0)
    monitor.stop()
    or_peak = max(plane.links[l].peak_utilization() for l in plane.links)
    congested = {
        f"{a}->{b}": plane.links[(a, b)].congested_seconds()
        for (a, b) in plane.links
        if plane.links[(a, b)].congested_seconds() > 0
    }
    print(f"OR: {plan.round_count} rounds")
    print(f"  peak link utilisation {or_peak:.2f} / {CAPACITY_MBPS:.0f} Mbps")
    for link, seconds in congested.items():
        print(f"  link {link} over capacity for {seconds:.2f} s")

    print()
    print("Bandwidth on the hottest link (per-second byte-counter deltas):")
    for sample in monitor.peak_series()[:20]:
        bar = "#" * int(round(sample.mbps))
        marker = "  <-- over capacity" if sample.mbps > CAPACITY_MBPS + 1e-9 else ""
        print(f"  t={sample.time:5.1f}s  {sample.mbps:5.2f} Mbps  {bar}{marker}")


if __name__ == "__main__":
    main()
