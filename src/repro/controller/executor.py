"""What an update puts on the wire, and the record of what came of it.

The executors themselves live in :mod:`repro.controller.resilient`; this
module holds the pieces they share with the code that reads their results:

* :class:`ExecutionTrace` -- planned versus applied times per switch plus
  the retry / abort / rollback bookkeeping;
* :func:`_update_message` -- the one FlowMod that moves a switch to its new
  rule, immediate (Algorithm 5's per-round sends) or carrying a Time4
  switch-local execution time;
* :func:`shadow_rules` -- the version-tagged copy of the new configuration
  a two-phase update installs (also what Table II renders mid-transition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.controller.messages import (
    FlowModAdd,
    FlowModModify,
    next_xid,
)
from repro.core.instance import UpdateInstance
from repro.network.graph import Node
from repro.simulator.dataplane import DataPlane
from repro.simulator.flowtable import FlowRule, Match
from repro.simulator.switch import HOST_PORT

#: Version tag stamped by the ingress flip and matched by the shadow rules.
TP_TAG = 2


@dataclass
class ExecutionTrace:
    """What actually happened on the wire and in the tables.

    Attributes:
        planned: Intended true-time execution point per switch (the send
            time for unscheduled FlowMods).
        applied: Actual true time each switch's rule flip took effect.
        late: Seconds by which a scheduled (Time4) FlowMod arrived *after*
            its execution time, per switch -- the switch clamps execution to
            arrival, so these entries attribute ``max_skew`` to control-
            channel lateness rather than clock error.
        finished_at: Time the final barrier reply (timed and two-phase: the
            last apply) landed, or the abort instant.
        aborted: The update gave up (retries exhausted or deadline passed).
        abort_reason: Why, when ``aborted``.
        retries: FlowMod resends per switch (only switches that needed any).
        gave_up: Switches that exhausted their retry budget.
        rolled_back: Switches sent a rollback message during abort, in send
            order (newest update first).
    """

    planned: Dict[Node, float] = field(default_factory=dict)
    applied: Dict[Node, float] = field(default_factory=dict)
    late: Dict[Node, float] = field(default_factory=dict)
    finished_at: Optional[float] = None
    aborted: bool = False
    abort_reason: str = ""
    retries: Dict[Node, int] = field(default_factory=dict)
    gave_up: List[Node] = field(default_factory=list)
    rolled_back: List[Node] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Every switch acknowledged and the update finished."""
        return self.finished_at is not None and not self.aborted

    @property
    def max_skew(self) -> float:
        """Largest |applied - planned| across switches."""
        gaps = [
            abs(self.applied[node] - when)
            for node, when in self.planned.items()
            if node in self.applied
        ]
        return max(gaps, default=0.0)

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())


def _update_message(
    plane: DataPlane, instance: UpdateInstance, node: Node, execute_at: Optional[float]
):
    """The FlowMod that moves ``node`` to its new rule."""
    new_hop = instance.new_next_hop(node)
    if new_hop is None:
        raise ValueError(f"switch {node!r} has no new rule")
    port = plane.port_of(node, new_hop)
    rule_name = instance.flow.name
    if instance.old_next_hop(node) is not None:
        return FlowModModify(
            xid=next_xid(), rule_name=rule_name, out_port=port, execute_at=execute_at
        )
    rule = FlowRule(
        name=rule_name,
        match=Match(dst_prefix=str(instance.destination)),
        out_port=port,
    )
    return FlowModAdd(xid=next_xid(), rule=rule, execute_at=execute_at)


def shadow_rules(
    plane: DataPlane, instance: UpdateInstance
) -> List[Tuple[Node, FlowRule]]:
    """The tagged copy of the new configuration, as ``(switch, rule)`` pairs.

    One rule per new-config switch plus the delivery rule at the
    destination, all named ``<flow>#v2``, matching :data:`TP_TAG` and
    outranking the untagged rules -- invisible to traffic until the ingress
    stamps the tag.
    """
    name = f"{instance.flow.name}#v2"
    match = Match(dst_prefix=str(instance.destination), tag=TP_TAG)
    hops = [(node, plane.port_of(node, nxt)) for node, nxt in instance.new_config.items()]
    hops.append((instance.destination, HOST_PORT))
    return [
        (node, FlowRule(name=name, match=match, out_port=port, priority=1))
        for node, port in hops
    ]
