"""Algorithm 1: the tree algorithm for checking update feasibility.

Algorithm 1 decides, in polynomial time (Theorem 2, for identical link
delays), whether a congestion- and loop-free timed update sequence exists.
The paper organises the two routing paths as the branches of a binary tree
rooted at the destination and repeatedly updates a switch whose dashed (new)
edge crosses from the branch currently carrying the flow to the other one:

* crossing updates can never create a forwarding loop (the deflected flow
  proceeds strictly towards the root), so only congestion must be checked;
* a candidate crossing is safe when the new segment it activates is *slower*
  than the old segment it replaces (``phi(p) >= phi(q)``, line 22) or the
  merged segment's bottleneck capacity ``.cons`` holds both flows
  (``.cons >= 2d``, lines 16/23); by Theorem 2, a crossing that fails both
  conditions now fails at every later time as well, which is what makes the
  greedy walk a complete decision procedure.

This implementation realises the walk on the exact time-extended flow state
(:func:`repro.core.tracker.make_tracker`) -- the tracker plays the
role of the paper's ``.cons`` bookkeeping and of the "links disappear once
drained" convention -- and uses the ``phi(p) - phi(q)`` comparison as the
candidate priority.  The walk updates one crossing at a time and lets each
settle, so it always terminates; it reports infeasible exactly when no
crossing is safe even after all finite (draining) traffic has left the
network, the fix-point at which Theorem 2's argument applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.core.tracker import Tracker, make_tracker
from repro.network.graph import Node


@dataclass
class FeasibilityResult:
    """Outcome of the tree algorithm.

    Attributes:
        feasible: Whether a congestion- and loop-free sequence exists.
        schedule: A witness schedule when feasible.
        blocked: The switches that could not be updated when infeasible.
        reason: Human-readable explanation.
    """

    feasible: bool
    schedule: Optional[UpdateSchedule] = None
    blocked: Tuple[Node, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.feasible


def check_update_feasibility(instance: UpdateInstance, t0: int = 0) -> FeasibilityResult:
    """Run Algorithm 1 and decide feasibility of the update instance.

    Args:
        instance: The update instance.
        t0: Earliest permitted update time.

    Returns:
        A :class:`FeasibilityResult` with a witness schedule when feasible.
    """
    pending: List[Node] = list(instance.switches_to_update)
    if not pending:
        return FeasibilityResult(
            feasible=True,
            schedule=UpdateSchedule(times={}, start_time=t0),
            reason="nothing to update",
        )

    tracker = make_tracker(instance, t0=t0)
    times: Dict[Node, int] = {}
    t = t0
    guard = 4 * (len(instance.network) + instance.old_path_delay + instance.new_path_delay) + 16

    for _ in range(guard):
        if not pending:
            schedule = UpdateSchedule(times=times, start_time=t0)
            return FeasibilityResult(feasible=True, schedule=schedule, reason="walk completed")

        chosen = _pick_crossing(instance, tracker, pending, t)
        if chosen is not None:
            tracker.apply_round([chosen], t)
            times[chosen] = t
            pending.remove(chosen)
            # Let the crossing settle before the next one (the paper advances
            # the clock by the activated segment's delay, lines 19/27).
            t += max(1, _segment_delay(instance, chosen))
            continue

        horizon = tracker.finite_drain_horizon()
        if horizon is None or t > horizon:
            # Fix point reached: by the Theorem 2 argument, a crossing that
            # is unsafe with only infinite (never-draining) traffic present
            # stays unsafe forever.
            return FeasibilityResult(
                feasible=False,
                blocked=tuple(pending),
                reason=(
                    "no branch crossing is safe after all in-flight traffic "
                    "drained: the bottleneck capacity cannot hold both flows "
                    "(cons < 2d) and every new segment is faster than the old "
                    "one (phi(p) < phi(q))"
                ),
            )
        t = horizon + 1

    return FeasibilityResult(
        feasible=False,
        blocked=tuple(pending),
        reason="walk exceeded its step guard",
    )


def _pick_crossing(
    instance: UpdateInstance,
    tracker: Tracker,
    pending: Sequence[Node],
    t: int,
) -> Optional[Node]:
    """Line 22: the safe candidate minimising ``phi(p) - phi(q)``.

    Candidates whose new segment is at least as slow as the old one
    (``phi(p) >= phi(q)``) are preferred in increasing slack order; if none
    of those is safe, the remaining safe candidates (possible thanks to
    drained links or spare capacity, line 23's ``cons >= 2d`` escape) are
    taken as a fallback.
    """
    preferred: List[Tuple[int, int, Node]] = []
    fallback: List[Tuple[int, Node]] = []
    for index, node in enumerate(pending):
        phi_p, phi_q = _segment_delays(instance, node)
        if phi_q is not None and phi_p is not None and phi_p >= phi_q:
            preferred.append((phi_p - phi_q, index, node))
        else:
            fallback.append((index, node))
    preferred.sort()
    for _, _, node in preferred:
        if tracker.preview_round([node], t).ok:
            return node
    for _, node in fallback:
        if tracker.preview_round([node], t).ok:
            return node
    return None


def _segment_delays(
    instance: UpdateInstance, node: Node
) -> Tuple[Optional[int], Optional[int]]:
    """``(phi(p), phi(q))`` for the crossing at ``node``.

    ``p`` is the new-config segment from ``node`` until it rejoins the old
    path (or reaches the destination); ``q`` is the old-path segment between
    the same endpoints.  ``phi(q)`` is ``None`` when the rejoin point lies
    *upstream* on the old path (the crossing points backwards) or when
    ``node`` is not on the old path.
    """
    network = instance.network
    old_path = instance.old_path
    old_index = {n: i for i, n in enumerate(old_path)}

    # Follow the new configuration until rejoining the old path.
    phi_p = 0
    current = node
    seen: Set[Node] = {node}
    rejoin: Optional[Node] = None
    for _ in range(len(network) + 1):
        nxt = instance.new_next_hop(current)
        if nxt is None:
            nxt = instance.old_next_hop(current)
        if nxt is None or nxt in seen:
            return None, None
        phi_p += network.delay(current, nxt)
        if nxt in old_index and nxt != node:
            rejoin = nxt
            break
        seen.add(nxt)
        current = nxt
    if rejoin is None:
        return phi_p, None

    if node not in old_index or old_index[rejoin] <= old_index[node]:
        return phi_p, None  # backward crossing: no old segment to compare

    phi_q = 0
    for a, b in zip(
        old_path[old_index[node]: old_index[rejoin]],
        old_path[old_index[node] + 1: old_index[rejoin] + 1],
    ):
        phi_q += network.delay(a, b)
    return phi_p, phi_q


def _segment_delay(instance: UpdateInstance, node: Node) -> int:
    phi_p, _ = _segment_delays(instance, node)
    return phi_p if phi_p is not None else 1

