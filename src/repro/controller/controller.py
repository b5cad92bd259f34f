"""The logically centralised controller and its managed switches.

A :class:`ManagedSwitch` is the control agent sitting next to a data-plane
switch: it applies FlowMods after the switch's installation latency (or at
the FlowMod's scheduled local time, Time4-style) and answers barrier
requests once everything received before them has completed.  The
:class:`Controller` sends messages over the asynchronous channel and
collects replies -- the Floodlight analogue driving Algorithms 5.
"""

from __future__ import annotations

from dataclasses import field
from typing import Callable, Dict, List, Optional, Set

from repro.controller.channel import ControlChannel
from repro.controller.clock import SwitchClock
from repro.controller.messages import (
    BarrierReply,
    BarrierRequest,
    ControlMessage,
    FlowModAdd,
    FlowModDelete,
    FlowModModify,
    next_xid,
)
from repro.simulator.engine import Simulator
from repro.simulator.switch import DataSwitch


class ManagedSwitch:
    """Control agent of one data-plane switch.

    Attributes:
        applied_at: True apply time per FlowMod xid.
        late: Lateness in seconds of Time4 FlowMods whose scheduled
            execution time had already passed on arrival (the switch clamps
            execution to "now"; without this record skew experiments
            under-report why ``max_skew`` grew).
        faults: Optional fault state (duck-typed, see
            :class:`repro.faults.SwitchFaultState`): ``crashed(now)``,
            ``apply_fails()`` and ``stretch_install(latency)`` hooks.
    """

    def __init__(
        self,
        sim: Simulator,
        switch: DataSwitch,
        channel: ControlChannel,
        clock: Optional[SwitchClock] = None,
    ) -> None:
        self._sim = sim
        self.switch = switch
        self._channel = channel
        self.clock = clock if clock is not None else SwitchClock()
        self._outstanding: Set[int] = set()
        self._barriers: List[tuple] = []  # (xid, waiting-for set, reply_fn)
        self.applied_at: Dict[int, float] = {}  # xid -> true apply time
        self.late: Dict[int, float] = {}  # xid -> seconds past execute_at
        self.faults = None

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def receive(self, message: ControlMessage, reply: Callable[[BarrierReply], None]) -> None:
        """Handle one message arriving from the control channel."""
        if self.faults is not None and self.faults.crashed(self._sim.now):
            return  # crash-stop: the agent processes nothing, ever again
        if isinstance(message, BarrierRequest):
            waiting = set(self._outstanding)
            if waiting:
                self._barriers.append((message.xid, waiting, reply))
            else:
                self._send_reply(message.xid, reply)
            return
        if isinstance(message, (FlowModAdd, FlowModModify, FlowModDelete)):
            if message.xid in self._outstanding or message.xid in self.applied_at:
                return  # duplicate xid (retry or channel duplication): idempotent
            self._outstanding.add(message.xid)
            if message.execute_at is not None:
                # Time4: pre-programmed execution at a switch-local time.
                true_when = self.clock.true_time(message.execute_at)
                if true_when < self._sim.now - 1e-12:
                    self.late[message.xid] = self._sim.now - true_when
                when = max(self._sim.now, true_when)
            else:
                latency = self._channel.draw_install_latency()
                if self.faults is not None:
                    latency = self.faults.stretch_install(latency)
                when = self._sim.now + latency
            self._sim.schedule_at(when, lambda: self._apply(message))
            return
        raise TypeError(f"unsupported message {message!r}")

    def _apply(self, message: ControlMessage) -> None:
        if self.faults is not None:
            if self.faults.crashed(self._sim.now):
                return  # crashed between receipt and execution
            if self.faults.apply_fails():
                # The install failed on the switch (OpenFlow would raise an
                # OFPT_ERROR): no table change, no apply record -- but the
                # message is processed, so barriers behind it may proceed.
                self._outstanding.discard(message.xid)
                self._drain_barriers()
                return
        table = self.switch.table
        if isinstance(message, FlowModAdd):
            table.add(message.rule)
        elif isinstance(message, FlowModModify):
            table.modify(message.rule_name, out_port=message.out_port, set_tag=message.set_tag)
        elif isinstance(message, FlowModDelete):
            table.delete(message.rule_name)
        self.switch.on_table_changed()
        self.applied_at[message.xid] = self._sim.now
        self._outstanding.discard(message.xid)
        self._drain_barriers()

    def _drain_barriers(self) -> None:
        ready = []
        for entry in self._barriers:
            xid, waiting, reply = entry
            waiting &= self._outstanding
            if not waiting:
                ready.append(entry)
        for entry in ready:
            self._barriers.remove(entry)
            self._send_reply(entry[0], entry[2])

    def _send_reply(self, xid: int, reply: Callable[[BarrierReply], None]) -> None:
        message = BarrierReply(xid=xid, switch=self.switch.name)
        self._channel.send(lambda: reply(message), key=("from", self.switch.name))


class Controller:
    """The central controller: sends FlowMods and synchronises on barriers."""

    def __init__(
        self,
        sim: Simulator,
        channel: ControlChannel,
        clocks: Optional[Dict[str, SwitchClock]] = None,
    ) -> None:
        self._sim = sim
        self._channel = channel
        self._switches: Dict[str, ManagedSwitch] = {}
        self._clocks = clocks or {}
        self._barrier_waiters: Dict[int, Callable[[BarrierReply], None]] = {}

    def manage(self, switch: DataSwitch) -> ManagedSwitch:
        """Attach a data-plane switch to this controller."""
        managed = ManagedSwitch(
            self._sim,
            switch,
            self._channel,
            clock=self._clocks.get(switch.name),
        )
        self._switches[switch.name] = managed
        return managed

    def managed(self, name: str) -> ManagedSwitch:
        return self._switches[name]

    @property
    def switch_names(self) -> List[str]:
        return list(self._switches)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_flow_mod(self, switch: str, message: ControlMessage) -> int:
        """Send a FlowMod; returns its xid."""
        managed = self._switches[switch]
        self._channel.send(
            lambda: managed.receive(message, self._on_barrier_reply),
            key=("to", switch),
        )
        return message.xid

    def send_barrier(
        self, switch: str, on_reply: Callable[[BarrierReply], None]
    ) -> int:
        """Send a barrier request; ``on_reply`` fires when the reply lands."""
        xid = next_xid()
        self._barrier_waiters[xid] = on_reply
        managed = self._switches[switch]
        request = BarrierRequest(xid=xid)
        self._channel.send(
            lambda: managed.receive(request, self._on_barrier_reply),
            key=("to", switch),
        )
        return xid

    def _on_barrier_reply(self, reply: BarrierReply) -> None:
        waiter = self._barrier_waiters.pop(reply.xid, None)
        if waiter is not None:
            waiter(reply)

    def expire_barrier(self, xid: int) -> bool:
        """Drop the waiter of a barrier whose reply is presumed lost.

        Without this the waiter table leaks forever whenever a reply is
        dropped (guaranteed under fault injection).  A reply that arrives
        after expiry is silently ignored.  Returns whether a waiter was
        still registered.
        """
        return self._barrier_waiters.pop(xid, None) is not None

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def apply_time(self, switch: str, xid: int) -> Optional[float]:
        """True time at which a FlowMod took effect, if it has."""
        return self._switches[switch].applied_at.get(xid)

    def lateness(self, switch: str, xid: int) -> Optional[float]:
        """Seconds a scheduled FlowMod arrived past its execution time."""
        return self._switches[switch].late.get(xid)
