"""Bandwidth monitoring à la the Floodlight statistics module.

The paper measures bandwidth by querying byte counters every second and
dividing counter deltas by the interval ("The difference between these two
counters divided by the time intervals yields the bandwidth consumption").
:class:`BandwidthMonitor` does exactly that against the fluid links' byte
counters, producing the per-link Mbps series of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.simulator.dataplane import DataPlane
from repro.simulator.engine import Simulator
from repro.network.graph import Node

LinkId = Tuple[Node, Node]


@dataclass
class BandwidthSample:
    """One polling-interval measurement."""

    time: float
    mbps: float


class BandwidthMonitor:
    """Polls link byte counters at a fixed interval.

    Args:
        plane: Data plane under observation.
        interval: Polling period in seconds (the paper uses one second).
        links: Links to watch (default: all).
    """

    def __init__(
        self,
        plane: DataPlane,
        interval: float = 1.0,
        links: Optional[List[LinkId]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("polling interval must be positive")
        self._plane = plane
        self._sim = plane.sim
        self.interval = interval
        self._links = list(links) if links is not None else list(plane.links)
        self._last_counter: Dict[LinkId, float] = {}
        self.series: Dict[LinkId, List[BandwidthSample]] = {
            link: [] for link in self._links
        }
        self._running = False
        self._pending = None

    def start(self) -> None:
        """Begin polling at the next interval boundary."""
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        for link in self._links:
            self._last_counter[link] = self._plane.links[link].byte_counter()
        self._pending = self._sim.schedule_after(self.interval, self._poll)

    def stop(self) -> None:
        """Stop polling and cancel the pending poll event.

        Without this the poll loop reschedules itself forever and an
        open-ended ``sim.run()`` never drains its event queue.  Stopping is
        idempotent; ``start`` may be called again afterwards.
        """
        if not self._running:
            return
        self._running = False
        if self._pending is not None:
            self._sim.cancel(self._pending)
            self._pending = None

    def _poll(self) -> None:
        if not self._running:
            return
        now = self._sim.now
        for link in self._links:
            counter = self._plane.links[link].byte_counter()
            delta = counter - self._last_counter[link]
            self._last_counter[link] = counter
            self.series[link].append(BandwidthSample(time=now, mbps=delta / self.interval))
        self._pending = self._sim.schedule_after(self.interval, self._poll)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def peak_series(self) -> List[BandwidthSample]:
        """Per-interval maximum across all watched links.

        Fig. 6 plots the consumption of the congestion-prone link; taking
        the per-interval maximum avoids hand-picking it.
        """
        if not self._links:
            return []
        length = min(len(s) for s in self.series.values())
        out: List[BandwidthSample] = []
        for index in range(length):
            time = self.series[self._links[0]][index].time
            mbps = max(self.series[link][index].mbps for link in self._links)
            out.append(BandwidthSample(time=time, mbps=mbps))
        return out
