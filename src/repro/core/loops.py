"""Algorithm 4: checking for forwarding loops in the time-extended network.

Updating switch ``v`` at time ``t`` deflects the flow arriving at ``v`` onto
``v`` 's new next hop ``v'``.  A transient forwarding loop arises when those
units have *already travelled through* ``v'``: that is, when ``v'`` lies on
the still-live old-path segment upstream of ``v``.  Algorithm 4 therefore
walks backwards along the incoming solid (old-path) lines of ``v`` in the
time-extended network -- a solid line exists at a given time only while old
flow still arrives over it, which is determined by the committed update
times of the upstream switches -- and reports a loop when it encounters
``v'`` before reaching the source.  :class:`LoopGates` answers that walk
in closed form, from the committed switches between ``v'`` and ``v``
instead of from every hop, as a range query over a position-sorted list of
those switches (the committed set of a scheduler only grows).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Mapping, Optional

from repro.core.instance import UpdateInstance
from repro.network.graph import Node


class LoopGates:
    """Algorithm 4 over the switches committed so far, which only grow.

    The unit updating ``v`` at ``t`` would deflect left each upstream
    switch ``p`` at ``t - off(v) + off(p)``, over a solid line that is gone
    iff ``p``'s *gate* ``applied[p] - off(p)`` is at most ``t - off(v)``.
    The walk reaches ``v'`` (it tests liveness first, so ``v'`` counts)
    unless a gate at a position in ``[pos(v'), pos(v))`` says so: sorted
    positions beside their gates make that two bisections and one ``min``.
    """

    __slots__ = ("_new", "_index", "_offsets", "_positions", "_gates")

    def __init__(self, instance: UpdateInstance) -> None:
        self._new = instance.new_config
        self._index = instance.old_path_index
        self._offsets = instance.old_path_offsets
        self._positions: List[int] = []
        self._gates: List[int] = []

    def commit(self, node: Node, when: int) -> None:
        """``node`` is updated at ``when`` (once; off the old path it cuts
        no solid line)."""
        position = self._index.get(node)
        if position is not None:
            at = bisect_left(self._positions, position)
            self._positions.insert(at, position)
            self._gates.insert(at, when - self._offsets[node])

    def creates_loop(self, v: Node, t: int) -> bool:
        """Would updating the uncommitted ``v`` at ``t`` send its first
        deflected unit back to ``v'``, upstream of it on the old path?"""
        v_prime = self._new.get(v)
        if v_prime is None:
            return False
        index = self._index
        here = index.get(v)
        there = index.get(v_prime)
        if here is None or there is None or there >= here:
            return False
        positions = self._positions
        start = bisect_left(positions, there)
        stop = bisect_left(positions, here, start)
        return start == stop or min(self._gates[start:stop]) > t - self._offsets[v]


def new_route_revisits(
    instance: UpdateInstance,
    applied: Mapping[Node, int],
    v: Node,
    t: int,
) -> Optional[Node]:
    """Exact forward variant: trace the first deflected unit and spot revisits.

    This generalises Algorithm 4 beyond the immediate next hop ``v'``: the
    deflected unit is followed through the *mixed* configuration (each hop
    applies the rule active at its departure time) and the first switch it
    visits twice is returned, or ``None`` for a loop-free route.  Used by
    the ablation benchmarks to quantify what the backward check misses.
    """
    network = instance.network
    destination = instance.destination

    # Reconstruct the deflected unit's history: the old-path prefix through
    # which the unit reached v, restricted to live solid lines (as above).
    history: list = [v]
    x, tau = v, t
    while True:
        p = instance.old_predecessor(x)
        if p is None:
            break
        tau -= network.delay(p, x)
        when = applied.get(p)
        if when is not None and when <= tau:
            break
        history.append(p)
        if p == instance.source:
            break
        x = p
    visited = set(history)

    # Follow forward from v under the mixed configuration with v updated.
    times = dict(applied)
    times[v] = t
    current, now = v, t
    for _ in range(len(network) + 1):
        if current == destination:
            return None
        when = times.get(current)
        if when is not None and when <= now:
            nxt = instance.new_next_hop(current)
        else:
            nxt = instance.old_next_hop(current)
        if nxt is None:
            return None  # black hole, not a loop
        now += network.delay(current, nxt)
        if nxt in visited:
            return nxt
        visited.add(nxt)
        current = nxt
    return current
