"""Assembling a data plane from a :class:`repro.network.graph.Network`.

The builder instantiates one :class:`DataSwitch` per switch and one
:class:`DataLink` per directed link, assigns port numbers (port 0 is the
host port), and installs the initial routing configuration as destination-
prefix rules -- the layout of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.instance import UpdateInstance
from repro.network.graph import Network, Node
from repro.simulator.engine import Simulator
from repro.simulator.flowtable import FlowRule, Match, PacketContext
from repro.simulator.link import DataLink
from repro.simulator.switch import HOST_PORT, DataSwitch


@dataclass
class DataPlane:
    """The emulated network: switches, links and port maps.

    Attributes:
        sim: The driving simulator.
        switches: Switch objects by name.
        links: Links by ``(src, dst)``.
        out_port: Port number of each directed link at its tail switch.
    """

    sim: Simulator
    switches: Dict[Node, DataSwitch]
    links: Dict[Tuple[Node, Node], DataLink]
    out_port: Dict[Tuple[Node, Node], int]

    def link(self, src: Node, dst: Node) -> DataLink:
        return self.links[(src, dst)]

    def switch(self, name: Node) -> DataSwitch:
        return self.switches[name]

    def port_of(self, src: Node, dst: Node) -> int:
        """The tail-side port of the directed link ``src -> dst``."""
        return self.out_port[(src, dst)]

    def inject_flow(
        self,
        source: Node,
        src_prefix: str,
        dst_prefix: str,
        rate: float,
        tag: Optional[int] = None,
    ) -> PacketContext:
        """Start a constant-rate flow at ``source``'s host port."""
        context = PacketContext(
            in_port=HOST_PORT, src_prefix=src_prefix, dst_prefix=dst_prefix, tag=tag
        )
        self.switches[source].inject(context, rate)
        return context

    def total_blackholed(self) -> float:
        """Current rate dropped by table misses across the plane."""
        return sum(sw.blackholed for sw in self.switches.values())

    def total_dropped_volume(self) -> float:
        """Megabits black-holed across the plane since the simulation began."""
        return sum(sw.dropped_volume() for sw in self.switches.values())

    def release(self) -> None:
        """Unwire every switch from its out-links once no traffic will move.

        Switch -> out-link -> head switch references follow the topology,
        so a topology with a directed cycle is a reference cycle; cutting
        the switch side lets a finished plane go by reference counting.
        What was measured stays readable (timelines, byte counters,
        volumes); the plane cannot carry traffic again.
        """
        for switch in self.switches.values():
            switch.detach_links()


def build_dataplane(
    sim: Simulator,
    network: Network,
    delay_scale: float = 1.0,
) -> DataPlane:
    """Instantiate switches and links for ``network``.

    Args:
        sim: Simulator that will drive the plane.
        network: Topology; link delays (integer steps) are multiplied by
            ``delay_scale`` to obtain seconds.
        delay_scale: Seconds per delay step.
    """
    switches: Dict[Node, DataSwitch] = {
        name: DataSwitch(sim, name) for name in network.switches
    }
    links: Dict[Tuple[Node, Node], DataLink] = {}
    out_port: Dict[Tuple[Node, Node], int] = {}
    next_port: Dict[Node, int] = {name: 1 for name in network.switches}
    in_port: Dict[Tuple[Node, Node], int] = {}

    # Assign an input port at the head and an output port at the tail for
    # every directed link.
    for link in network.links:
        tail_port = next_port[link.src]
        next_port[link.src] += 1
        head_port = next_port[link.dst]
        next_port[link.dst] += 1
        out_port[(link.src, link.dst)] = tail_port
        in_port[(link.src, link.dst)] = head_port

    for link in network.links:
        head_switch = switches[link.dst]
        data_link = DataLink(
            sim=sim,
            name=f"{link.src}->{link.dst}",
            capacity=link.capacity,
            delay=link.delay * delay_scale,
            deliver=head_switch.receive,
            dst_in_port=in_port[(link.src, link.dst)],
        )
        links[(link.src, link.dst)] = data_link
        switches[link.src].attach_link(out_port[(link.src, link.dst)], data_link)

    return DataPlane(sim=sim, switches=switches, links=links, out_port=out_port)


def install_config(
    plane: DataPlane,
    instance: UpdateInstance,
    flow_prefix: Optional[str] = None,
    tag: Optional[int] = None,
    rule_suffix: str = "",
) -> None:
    """Install a routing configuration as destination-prefix rules.

    One rule per old-config switch (``Match(dst_prefix=...) -> Output``),
    plus the delivery rule at the destination -- the Table II layout.

    Args:
        plane: The data plane.
        instance: Supplies the old configuration and flow endpoints.
        flow_prefix: Destination prefix to match (defaults to
            ``instance.destination``).
        tag: Version tag the rules should match (two-phase updates).
        rule_suffix: Appended to rule names (to keep versions distinct).
    """
    dst_prefix = flow_prefix if flow_prefix is not None else str(instance.destination)
    for node, nxt in instance.old_config.items():
        plane.switch(node).table.add(
            FlowRule(
                name=f"{instance.flow.name}{rule_suffix}",
                match=Match(dst_prefix=dst_prefix, tag=tag),
                out_port=plane.port_of(node, nxt),
            )
        )
        plane.switch(node).on_table_changed()
    destination = plane.switch(instance.destination)
    destination.table.add(
        FlowRule(
            name=f"{instance.flow.name}{rule_suffix}",
            match=Match(dst_prefix=dst_prefix, tag=tag),
            out_port=HOST_PORT,
        )
    )
    destination.on_table_changed()
