"""SDN control plane: controller, asynchronous channel, clocks, executors.

The Floodlight-controller analogue.  The control channel delivers FlowMods
with per-switch random latencies (the source of the out-of-order arrivals
that motivate the paper); barrier request/reply pairs provide the
round-synchronisation primitive of Algorithm 5; per-switch clocks with
bounded offset model Time4-style scheduled updates, letting Chronus fire
rule changes at precise data-plane times.

A plan is executed one way: :func:`execute_plan` dispatches on the
planner's ``executor`` flag to the acknowledged executors
(:func:`perform_resilient_update` for ``rounds`` / ``timed``,
:func:`perform_resilient_two_phase`), which return one
:class:`ExecutionTrace`; :func:`realized_schedule` reads it back for the
verifier and :func:`build_testbed` wires the single-flow plane they run on.
"""

from repro.controller.messages import (
    BarrierReply,
    BarrierRequest,
    FlowModAdd,
    FlowModDelete,
    FlowModModify,
)
from repro.controller.channel import (
    ConstantDelayModel,
    ControlChannel,
    DionysusDelayModel,
    StepDelayModel,
)
from repro.controller.clock import SwitchClock, synchronized_clocks
from repro.controller.controller import Controller, ManagedSwitch
from repro.controller.executor import ExecutionTrace
from repro.controller.resilient import (
    execute_plan,
    perform_resilient_two_phase,
    perform_resilient_update,
    realized_schedule,
)
from repro.controller.testbed import build_testbed

__all__ = [
    "BarrierReply",
    "BarrierRequest",
    "FlowModAdd",
    "FlowModDelete",
    "FlowModModify",
    "ConstantDelayModel",
    "ControlChannel",
    "DionysusDelayModel",
    "StepDelayModel",
    "SwitchClock",
    "synchronized_clocks",
    "Controller",
    "ManagedSwitch",
    "ExecutionTrace",
    "execute_plan",
    "perform_resilient_update",
    "perform_resilient_two_phase",
    "realized_schedule",
    "build_testbed",
]
