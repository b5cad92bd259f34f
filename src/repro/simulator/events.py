"""Event queue for the discrete-event simulator."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

Callback = Callable[[], None]


class _Event:
    """Cancellable handle of one scheduled callback."""

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callback) -> None:
        self.callback = callback
        self.cancelled = False


class EventQueue:
    """A cancellable min-heap of timed callbacks.

    Events at equal times fire in scheduling order (FIFO), which keeps the
    simulation deterministic.

    Attributes:
        heap: ``(time, sequence, event)`` entries in :mod:`heapq` order.  The
            unique sequence number decides equal times, so tuples compare in
            C and never reach the event.  Cancelled events stay on the heap
            until they surface; :meth:`Simulator.run
            <repro.simulator.engine.Simulator.run>` walks the list directly.
    """

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, _Event]] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: Callback) -> _Event:
        """Schedule ``callback`` at ``time``; returns a cancellable handle."""
        event = _Event(callback)
        heapq.heappush(self.heap, (time, next(self._counter), event))
        return event

    def cancel(self, event: _Event) -> None:
        """Mark an event as cancelled (lazily discarded on pop)."""
        event.cancelled = True

    def pop(self) -> Optional[_Event]:
        """Remove and return the earliest live event, or ``None``."""
        heap = self.heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None``."""
        heap = self.heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return sum(1 for entry in self.heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
