"""Admission control and batch merging over link footprints.

Every request carries a *footprint*: the set of directed links its
tenant's update could touch (both paths -- the planner may move the flow
either way).  The controller is deliberately topology-agnostic: it only
intersects footprints, so it works unchanged for any workload shape.

Rules:

* A request whose footprint is disjoint from every in-flight update and
  every queued request is **admitted** immediately as its own batch.
* A conflicting request is **queued** (FIFO) -- including conflicts with
  *queued* requests, so overlapping requests can never leapfrog.
* When the queue is full the request is **rejected**.
* When an in-flight batch finishes (:meth:`release`), queued requests
  are grouped into maximal overlap-connected components (union-find) in
  arrival order; every component that no longer conflicts with anything
  in flight is dispatched as **one merged batch** -- one planning call
  for all the requests that touch those links.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")

Footprint = FrozenSet[Tuple[str, str]]


@dataclass
class Batch(Generic[T]):
    """A dispatched unit of work: one or more merged requests."""

    token: int
    items: List[T]
    footprint: Footprint


class AdmissionController(Generic[T]):
    """Footprint-intersection admission with FIFO queueing and merging."""

    def __init__(self, max_queue: int = 32) -> None:
        self.max_queue = max_queue
        self._in_flight: Dict[int, Footprint] = {}
        self._queue: List[Tuple[T, Footprint]] = []
        self._tokens = itertools.count()
        self.rejected = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _conflicts_in_flight(self, footprint: Footprint) -> bool:
        return any(footprint & held for held in self._in_flight.values())

    def _conflicts_queued(self, footprint: Footprint) -> bool:
        return any(footprint & queued for _, queued in self._queue)

    # ------------------------------------------------------------------
    def offer(self, item: T, footprint: Footprint) -> Tuple[str, Optional[Batch[T]]]:
        """Submit one request.

        Returns ``("admitted", batch)``, ``("queued", None)`` or
        ``("rejected", None)``.
        """
        if self._conflicts_in_flight(footprint) or self._conflicts_queued(footprint):
            if len(self._queue) >= self.max_queue:
                self.rejected += 1
                return "rejected", None
            self._queue.append((item, footprint))
            return "queued", None
        token = next(self._tokens)
        self._in_flight[token] = footprint
        return "admitted", Batch(token=token, items=[item], footprint=footprint)

    def release(self, token: int) -> List[Batch[T]]:
        """Finish an in-flight batch; dispatch every unblocked queue group."""
        self._in_flight.pop(token, None)
        if not self._queue:
            return []

        # Union-find over queue positions.  Chaining every request to the
        # earliest holder of each of its links joins exactly the requests
        # whose footprints overlap, in one pass over the footprints instead
        # of one intersection per pair; the earlier position stays root, so
        # a root is its component's first arrival.
        parent = list(range(len(self._queue)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        holder: Dict[Tuple[str, str], int] = {}
        for i, (_, footprint) in enumerate(self._queue):
            root = i
            for first in {holder.setdefault(link, i) for link in footprint}:
                other = find(first)
                if other < root:
                    parent[root] = other
                    root = other
                elif other > root:
                    parent[other] = root

        groups: Dict[int, List[int]] = {}
        for i in range(len(self._queue)):
            groups.setdefault(find(i), []).append(i)

        dispatched: List[Batch[T]] = []
        taken: set = set()
        # ``groups`` fills in arrival order of each component's earliest
        # member; components are pairwise disjoint, so dispatching one
        # cannot block another.
        for members in groups.values():
            merged: Footprint = frozenset().union(
                *(self._queue[i][1] for i in members)
            )
            if self._conflicts_in_flight(merged):
                continue
            token = next(self._tokens)
            self._in_flight[token] = merged
            dispatched.append(
                Batch(
                    token=token,
                    items=[self._queue[i][0] for i in members],
                    footprint=merged,
                )
            )
            taken.update(members)
        if taken:
            self._queue = [
                entry for i, entry in enumerate(self._queue) if i not in taken
            ]
        return dispatched

    def reset(self) -> None:
        """Drop all state (topology change); queued items are abandoned."""
        self._in_flight.clear()
        self._queue.clear()
