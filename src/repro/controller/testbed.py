"""The single-flow testbed every executed experiment runs on.

Fig. 6, the faults ablation and the differential replay all need the same
world: a fluid data plane carrying the instance's flow on its old path, a
control channel (lossy when a fault plan is given) and a controller managing
every switch.  They differ only in the latency models, the random stream,
the switch clocks and the fault plan -- which is all :func:`build_testbed`
asks for.
"""

from __future__ import annotations

import random
from typing import Dict, NamedTuple, Optional

from repro.controller.channel import ControlChannel, DelayModel
from repro.controller.clock import SwitchClock
from repro.controller.controller import Controller
from repro.core.instance import UpdateInstance
from repro.simulator.dataplane import DataPlane, build_dataplane, install_config
from repro.simulator.engine import Simulator


class Testbed(NamedTuple):
    """One simulated world: ``sim, plane, controller = build_testbed(...)``."""

    sim: Simulator
    plane: DataPlane
    controller: Controller


def build_testbed(
    instance: UpdateInstance,
    *,
    network_delay: DelayModel,
    install_delay: DelayModel,
    rng: random.Random,
    delay_scale: float = 1.0,
    clocks: Optional[Dict[str, SwitchClock]] = None,
    fault_plan=None,
) -> Testbed:
    """Build plane, channel and controller for ``instance``; start its flow.

    Args:
        instance: Supplies the network, the old configuration (installed)
            and the flow (injected at its demand).
        network_delay: Control-network latency per message.
        install_delay: Per-FlowMod switch processing latency.
        rng: The channel's random source.
        delay_scale: Seconds per link-delay step.
        clocks: Per-switch clocks (default: perfectly synchronised).
        fault_plan: A :class:`repro.faults.FaultPlan`; the channel then
            loses / duplicates messages on plan and every managed switch
            gets its drawn fate.
    """
    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=delay_scale)
    install_config(plane, instance)
    if fault_plan is None:
        channel = ControlChannel(
            sim, network_delay=network_delay, install_delay=install_delay, rng=rng
        )
    else:
        from repro.faults.channel import FaultyChannel

        channel = FaultyChannel(
            sim, fault_plan,
            network_delay=network_delay, install_delay=install_delay, rng=rng,
        )
    controller = Controller(sim, channel, clocks)
    for switch in plane.switches.values():
        controller.manage(switch)
    if fault_plan is not None:
        fault_plan.wire(controller)
    plane.inject_flow(
        instance.source, "h1", str(instance.destination), rate=instance.demand
    )
    return Testbed(sim, plane, controller)
