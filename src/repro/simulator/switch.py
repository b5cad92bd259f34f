"""Data-plane switches: flow-table forwarding of fluid streams.

A switch keeps the set of currently arriving streams per input port.  On
a flow-table change it re-evaluates all streams against the table and
pushes the aggregated per-output rates onto its links; on an arrival-rate
change it re-forwards only the output stream that input maps to (the
table's answer per input is kept until the table mutates).  Table misses
black-hole traffic (counted); rules outputting on the host port deliver
traffic (counted too).

Invariant: a full :meth:`DataSwitch.reevaluate` right after either pass
changes nothing -- no link rate, no breakpoint, no event.  Output rates are
therefore always summed over the inputs in arrival order, the order the
full pass uses, so both passes produce the same floats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.simulator.engine import Simulator
from repro.simulator.flowtable import FlowRule, FlowTable, PacketContext
from repro.simulator.link import DataLink, StreamKey, stream_key

HOST_PORT = 0

_EPS = 1e-12

InKey = Tuple[int, str, str, Optional[int]]  # (in_port, src, dst, tag)

#: Where the table sends one input: ``(out port, output stream, context on
#: the wire)``.  Port ``HOST_PORT`` delivers and port ``None`` drops (table
#: miss, drop rule or unattached port); neither has an output stream.
Decision = Tuple[Optional[int], Optional[StreamKey], Optional[PacketContext]]
_DELIVER: Decision = (HOST_PORT, None, None)
_DROP: Decision = (None, None, None)


class DataSwitch:
    """One switch of the emulated data plane."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self.table = FlowTable()
        self._egress: Dict[int, DataLink] = {}
        self._in_rates: Dict[InKey, Tuple[PacketContext, float]] = {}
        # Decisions of the last full pass plus every input seen since, valid
        # while the table still has the version that pass saw.
        self._decisions: Dict[InKey, Decision] = {}
        self._forwarded_version: Optional[int] = None
        self.delivered = 0.0  # Mbps currently leaving through the host port
        self.blackholed = 0.0  # Mbps currently dropped by table misses
        self._volume_accrued_at = sim.now  # last time the volume integrals advanced
        self._dropped_volume = 0.0  # megabits dropped up to _volume_accrued_at
        self._delivered_volume = 0.0  # megabits delivered up to _volume_accrued_at

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_link(self, port: int, link: DataLink) -> None:
        """Connect an output ``port`` to a link."""
        if port == HOST_PORT:
            raise ValueError("port 0 is reserved for the host")
        if port in self._egress:
            raise ValueError(f"port {port} already attached on {self.name}")
        self._egress[port] = link
        self._forwarded_version = None  # a dropped stream may now have a way out

    def detach_links(self) -> None:
        """Disconnect every output port (see
        :meth:`repro.simulator.dataplane.DataPlane.release`)."""
        self._egress.clear()

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def receive(self, context: PacketContext, rate: float) -> None:
        """A stream's arrival rate changed (link delivery or host inject)."""
        key: InKey = (context.in_port, context.src_prefix, context.dst_prefix, context.tag)
        if rate < _EPS:
            self._in_rates.pop(key, None)
        else:
            self._in_rates[key] = (context, rate)
        if self.table.version != self._forwarded_version:
            self.reevaluate()  # the table moved without on_table_changed()
            return
        self._accrue_volumes()
        decisions = self._decisions
        decision = decisions.get(key)
        if decision is None:
            decision = decisions[key] = self._decide(context)
        port, out_key, _ = decision
        # Re-sum the one bucket this input feeds, in arrival order.
        total = 0.0
        wire_context = None
        for in_key, (_, in_rate) in self._in_rates.items():
            other = decisions[in_key]
            if other[0] == port and other[1] == out_key:
                if wire_context is None:
                    wire_context = other[2]
                total += in_rate
        if port == HOST_PORT:
            self.delivered = total
        elif port is None:
            self.blackholed = total
        elif wire_context is None:
            self._egress[port].clear_stream(out_key)
        else:
            self._egress[port].set_stream_rate(wire_context, total)

    def inject(self, context: PacketContext, rate: float) -> None:
        """Host-side traffic source (must use the host port)."""
        if context.in_port != HOST_PORT:
            raise ValueError("host traffic enters on port 0")
        self.receive(context, rate)

    def on_table_changed(self) -> None:
        """Re-forward everything after a FlowMod took effect."""
        self.reevaluate()

    def dropped_volume(self) -> float:
        """Megabits black-holed so far (the drop analogue of a byte counter)."""
        return self._dropped_volume + self.blackholed * (
            self._sim.now - self._volume_accrued_at
        )

    def delivered_volume(self) -> float:
        """Megabits delivered through the host port so far."""
        return self._delivered_volume + self.delivered * (
            self._sim.now - self._volume_accrued_at
        )

    def _accrue_volumes(self) -> None:
        now = self._sim.now
        elapsed = now - self._volume_accrued_at
        if elapsed > 0.0:
            self._dropped_volume += self.blackholed * elapsed
            self._delivered_volume += self.delivered * elapsed
        self._volume_accrued_at = now

    def _decide(self, context: PacketContext) -> Decision:
        """Look one input up in the table as it is now."""
        rule = self.table.lookup(context)
        if rule is None or rule.out_port is None:
            return _DROP
        if rule.out_port == HOST_PORT:
            return _DELIVER
        if rule.out_port not in self._egress:
            return _DROP
        out_tag = rule.set_tag if rule.set_tag is not None else context.tag
        out_context = context.with_tag(out_tag)
        return (rule.out_port, stream_key(out_context), out_context)

    def reevaluate(self) -> None:
        """Recompute all output rates from the current inputs and table."""
        self._accrue_volumes()
        self._forwarded_version = self.table.version
        decisions = self._decisions = {}
        per_port: Dict[int, Dict[StreamKey, Tuple[PacketContext, float]]] = {
            port: {} for port in self._egress
        }
        delivered = 0.0
        blackholed = 0.0
        for in_key, (context, rate) in self._in_rates.items():
            port, key, out_context = decisions[in_key] = self._decide(context)
            if port == HOST_PORT:
                delivered += rate
            elif port is None:
                blackholed += rate
            else:
                bucket = per_port[port]
                if key in bucket:
                    bucket[key] = (bucket[key][0], bucket[key][1] + rate)
                else:
                    bucket[key] = (out_context, rate)
        self.delivered = delivered
        self.blackholed = blackholed
        for port, streams in per_port.items():
            link = self._egress[port]
            for context, rate in streams.values():
                link.set_stream_rate(context, rate)
            link.clear_absent_streams(streams)
