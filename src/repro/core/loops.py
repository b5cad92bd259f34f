"""Algorithm 4: checking for forwarding loops in the time-extended network.

Updating switch ``v`` at time ``t`` deflects the flow arriving at ``v`` onto
``v`` 's new next hop ``v'``.  A transient forwarding loop arises when those
units have *already travelled through* ``v'``: that is, when ``v'`` lies on
the still-live old-path segment upstream of ``v``.  Algorithm 4 therefore
walks backwards along the incoming solid (old-path) lines of ``v`` in the
time-extended network -- a solid line exists at a given time only while old
flow still arrives over it, which is determined by the committed update
times of the upstream switches -- and reports a loop when it encounters
``v'`` before reaching the source.  :func:`creates_forwarding_loop` answers
that walk in closed form, from the committed switches between ``v'`` and
``v`` instead of from every hop.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.instance import UpdateInstance
from repro.network.graph import Node


def creates_forwarding_loop(
    instance: UpdateInstance,
    applied: Mapping[Node, int],
    v: Node,
    t: int,
) -> bool:
    """Algorithm 4: would updating ``v`` at ``t`` create a forwarding loop?

    Args:
        instance: The update instance.
        applied: Committed ``switch -> update time`` assignments (``v`` must
            not be among them).  Switches absent from the mapping still use
            their old rule.
        v: The switch whose update is being considered.
        t: The candidate update time.

    Returns:
        ``True`` when the first deflected unit would revisit ``v`` 's new
        next hop; ``False`` otherwise (including when no flow arrives at
        ``v`` anymore, in which case the update cannot deflect anything).
    """
    v_prime = instance.new_next_hop(v)
    if v_prime is None:
        return False
    # The backward walk along the old path from v, in closed form.  The unit
    # that would be deflected at v departed each upstream switch p at
    # t - (off(v) - off(p)); the solid line out of p is live there only while
    # p still applies its old rule, i.e. unless applied[p] - off(p) <=
    # t - off(v).  The walk reports a loop iff it reaches v' -- v' included,
    # it tests liveness before identity -- so only the committed switches
    # between v' and v can say no.
    index = instance.old_path_index
    here = index.get(v)
    there = index.get(v_prime)
    if here is None or there is None or there >= here:
        return False
    offsets = instance.old_path_offsets
    deadline = t - offsets[v]
    for p, when in applied.items():
        position = index.get(p)
        if (
            position is not None
            and there <= position < here
            and when - offsets[p] <= deadline
        ):
            return False
    return True


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
