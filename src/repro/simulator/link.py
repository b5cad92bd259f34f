"""Fluid links: rate propagation with delay, plus byte counters.

A link carries a set of *streams* (flow descriptors) at given rates; rate
changes imposed at the tail take effect at the head after the propagation
delay.  The link records a breakpoint timeline of its total utilisation,
from which byte counters -- the quantity the Floodlight statistics module
exposes and Fig. 6 derives bandwidth from -- are integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.simulator.engine import Simulator
from repro.simulator.flowtable import PacketContext

StreamKey = Tuple[str, str, Optional[int]]  # (src_prefix, dst_prefix, tag)

_EPS = 1e-12

_rate_of = itemgetter(1)  # of a ``(context, rate)`` entry


def stream_key(context: PacketContext) -> StreamKey:
    return (context.src_prefix, context.dst_prefix, context.tag)


@dataclass
class UtilizationSample:
    time: float
    rate: float


class DataLink:
    """A directed link between two data-plane switches.

    Attributes:
        name: ``"src->dst"``.
        capacity: Capacity in Mbps.
        delay: Propagation delay in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: float,
        delay: float,
        deliver: Callable[[PacketContext, float], None],
        dst_in_port: int,
    ) -> None:
        self._sim = sim
        self.name = name
        self.capacity = capacity
        self.delay = delay
        self._deliver = deliver
        self._dst_in_port = dst_in_port
        self._rates: Dict[StreamKey, Tuple[PacketContext, float]] = {}
        self._timeline: List[UtilizationSample] = [UtilizationSample(sim.now, 0.0)]
        self._transferred = 0.0  # megabits accumulated up to _timeline[-1]

    # ------------------------------------------------------------------
    # tail side: impose rates
    # ------------------------------------------------------------------
    def set_stream_rate(self, context: PacketContext, rate: float) -> None:
        """Set a stream's rate at the tail; propagates after the delay."""
        key = stream_key(context)
        entry = self._rates.get(key)
        current = 0.0 if entry is None else entry[1]
        if abs(current - rate) < _EPS:
            return
        # The arriving context depends only on the key and this link, so a
        # stream already carried keeps the one it has.
        arriving = (
            context.with_in_port(self._dst_in_port) if entry is None else entry[0]
        )
        if rate < _EPS:
            self._rates.pop(key, None)
        else:
            self._rates[key] = (arriving, rate)
        self._record_breakpoint()
        self._sim.schedule_after(self.delay, partial(self._deliver, arriving, rate))

    def clear_stream(self, key: StreamKey) -> None:
        """Zero one stream (a no-op when the link does not carry it)."""
        entry = self._rates.pop(key, None)
        if entry is not None:
            self._record_breakpoint()
            self._sim.schedule_after(self.delay, partial(self._deliver, entry[0], 0.0))

    def clear_absent_streams(self, live_keys) -> None:
        """Zero every stream not present in ``live_keys``."""
        for key in [key for key in self._rates if key not in live_keys]:
            self.clear_stream(key)

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Current total rate in Mbps."""
        # sum() rather than a loop: how it adds floats differs across Pythons,
        # and recorded timelines are compared byte for byte.
        return sum(map(_rate_of, self._rates.values()))

    def byte_counter(self, at: Optional[float] = None) -> float:
        """Megabits transferred up to ``at`` (default: now).

        The OpenFlow byte counter analogue: monotone, sampled by the
        monitor, bandwidth = counter delta / interval.
        """
        when = self._sim.now if at is None else at
        total = 0.0
        timeline = self._timeline
        for sample, nxt in zip(timeline, timeline[1:]):
            if nxt.time >= when:
                total += sample.rate * max(0.0, when - sample.time)
                return total
            total += sample.rate * (nxt.time - sample.time)
        last = timeline[-1]
        total += last.rate * max(0.0, when - last.time)
        return total

    def utilization_timeline(self) -> List[UtilizationSample]:
        """Breakpoints of total utilisation over time."""
        return list(self._timeline)

    def peak_utilization(self, since: float = 0.0) -> float:
        """Maximum total rate observed over ``[since, now]``.

        Each breakpoint's rate holds over ``[sample.time, next.time)``; the
        last sample's segment is clipped to the current simulation time, so
        a query window that starts in the future (``since > now``) is empty
        and reports zero instead of the open-ended final rate.
        """
        now = self._sim.now
        if since > now:
            return 0.0
        peak = 0.0
        timeline = self._timeline
        for index, sample in enumerate(timeline):
            if index + 1 < len(timeline) and timeline[index + 1].time <= since:
                continue  # segment over before the window; straddlers stay in
            peak = max(peak, sample.rate)
        return peak

    def congested_seconds(self, tolerance: float = 1e-9) -> float:
        """Total time the link spent above capacity."""
        total = 0.0
        timeline = self._timeline
        for sample, nxt in zip(timeline, timeline[1:]):
            if sample.rate > self.capacity + tolerance:
                total += nxt.time - sample.time
        last = timeline[-1]
        if last.rate > self.capacity + tolerance:
            total += max(0.0, self._sim.now - last.time)
        return total

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _record_breakpoint(self) -> None:
        now = self._sim.now
        last = self._timeline[-1]
        rate = self.utilization
        if abs(now - last.time) < _EPS:
            last.rate = rate
        else:
            self._timeline.append(UtilizationSample(now, rate))
