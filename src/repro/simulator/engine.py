"""The discrete-event simulation engine."""

from __future__ import annotations

from heapq import heappop
from typing import Optional

from repro.simulator.events import Callback, EventQueue


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Components schedule callbacks at absolute times or after delays; the
    engine fires them in time order.  Time is in seconds (float).

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule_at(1.5, lambda: fired.append(sim.now))
        >>> sim.run(until=2.0)
        >>> fired
        [1.5]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue = EventQueue()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule_at(self, time: float, callback: Callback):
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        return self._queue.push(max(time, self._now), callback)

    def schedule_after(self, delay: float, callback: Callback):
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self._queue.push(self._now + delay, callback)

    def cancel(self, handle) -> None:
        """Cancel a previously scheduled event."""
        self._queue.cancel(handle)

    def release(self) -> None:
        """Drop every unfired event, cancelled or not, once nothing will run.

        A pending callback holds whatever scheduled it (a link, a switch,
        an executor's timer), and each of those holds the simulator back:
        dropping the queue lets a finished world go by reference counting.
        """
        self._queue.heap.clear()

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Args:
            until: Stop once the next event lies beyond this time (the clock
                is advanced to ``until``).
            max_events: Safety valve against runaway event storms: raises
                ``RuntimeError`` when a further event is due after this many.

        Returns:
            Number of events processed.
        """
        heap = self._queue.heap
        horizon = float("inf") if until is None else until
        processed = 0
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if time > horizon:
                break
            if processed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            heappop(heap)
            self._now = time
            event.callback()
            processed += 1
        if until is not None and until > self._now:
            self._now = until
        return processed
