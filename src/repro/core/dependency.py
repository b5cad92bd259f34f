"""Algorithm 3: dependency relation sets.

At a given time step ``t``, Algorithm 3 decides in which *order* pending
switches may update: if updating ``v_i`` now would push new flow through a
switch ``v`` whose outgoing link ``(v, v~)`` still carries old flow fed by
the old-path predecessor ``v-`` -- and that link cannot hold both flows
(``C < 2d``) -- then ``v-`` must update (and its old flow drain) before
``v_i``.  Relations sharing a common switch merge into chains, e.g.
``{v1 -> v2}`` and ``{v2 -> v3}`` merge into ``{v1 -> v2 -> v3}``
(Fig. 5 of the paper).

The *liveness* of old flow ("the solid line still exists at ``v(t')`` in the
time-extended network") is computed from the committed update times: the
last unit of old flow through a switch is the last emission that clears
every already-updated upstream switch before its update time.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.instance import UpdateInstance
from repro.network.graph import Node
from repro.network.paths import arrival_offsets

_EPS = 1e-9


@dataclass
class DependencySet:
    """The dependency relation set ``O_t`` of one time step.

    Attributes:
        chains: Ordered chains of pending switches; a switch may only update
            once every switch before it in its chain has updated *and* the
            corresponding old flow has drained.  Unconstrained switches form
            singleton chains.
        deferred: Pending switches that must simply wait for in-flight old
            traffic to drain (their blocker has already been updated, so no
            switch-ordering relation expresses the wait).
        has_cycle: ``True`` when the raw relations are cyclic, in which case
            no congestion-free update order exists at this time step
            (Algorithm 2, lines 7-8).
    """

    chains: List[List[Node]] = field(default_factory=list)
    deferred: Set[Node] = field(default_factory=set)
    has_cycle: bool = False

    @property
    def heads(self) -> List[Node]:
        """Switches allowed to update now: chain heads that are not deferred."""
        return [chain[0] for chain in self.chains if chain and chain[0] not in self.deferred]


def last_old_departure(
    instance: UpdateInstance, applied: Mapping[Node, int], node: Node
) -> Optional[float]:
    """Last time old flow departs ``node`` along the old path.

    ``None`` when ``node`` is not on the old path; ``inf`` when old flow
    never stops (no upstream switch updated yet).  Only switches *upstream
    of or equal to* ``node`` gate its old departures.
    """
    old_path = instance.old_path
    if node not in old_path:
        return None
    offsets = arrival_offsets(instance.network, old_path)
    index = old_path.index(node)
    bound: Optional[int] = None
    for ancestor, offset in zip(old_path[: index + 1], offsets):
        when = applied.get(ancestor)
        if when is None:
            continue
        candidate = when - offset - 1
        bound = candidate if bound is None else min(bound, candidate)
    if bound is None:
        return float("inf")
    return bound + offsets[index]


def drain_table(
    instance: UpdateInstance, applied: Mapping[Node, int]
) -> Dict[Node, float]:
    """Last old-flow departure time per old-path switch, in one pass.

    Equivalent to calling :func:`last_old_departure` for every switch but
    linear overall: the binding constraint for a switch is the minimum of
    ``update_time(a) - off(a)`` over its old-path ancestors, a prefix
    minimum along the path.
    """
    old_path = instance.old_path
    offsets = instance.old_path_offsets
    table: Dict[Node, float] = {}
    prefix_min = float("inf")
    for node in old_path:
        offset = offsets[node]
        when = applied.get(node)
        if when is not None:
            prefix_min = min(prefix_min, when - offset)
        table[node] = prefix_min - 1 + offset
    return table


def dependency_relations(
    instance: UpdateInstance,
    pending: Sequence[Node],
    applied: Mapping[Node, int],
    t: int,
) -> DependencySet:
    """Algorithm 3: build the dependency relation set ``O_t``.

    Args:
        instance: The update instance.
        pending: Switches still awaiting their update (the set ``Gamma``).
        applied: Committed ``switch -> update time`` assignments.
        t: The current time step.

    Returns:
        The merged chains, deferred switches and cycle flag.
    """
    network = instance.network
    demand = instance.demand
    pending_set = set(pending)
    relations: List[Tuple[Node, Node]] = []  # (before, after)
    deferred: Set[Node] = set()
    # The paper's `include` flag (lines 2 and 10-11): once a switch takes
    # part in a relation it is not examined as v_i again this step, which
    # keeps the relation set a union of chains instead of a dense digraph.
    marked: Set[Node] = set()
    drains = drain_table(instance, applied)

    for v_i in pending:
        if v_i in marked:
            continue
        v = instance.new_next_hop(v_i)
        if v is None or v == instance.destination:
            continue
        t_arrival = t + network.delay(v_i, v)
        # The switch v forwards with its *current* rule when the new flow
        # arrives: old while pending, new once updated.
        if v in applied and applied[v] <= t_arrival:
            v_tilde = instance.new_next_hop(v)
        else:
            v_tilde = instance.old_next_hop(v)
        if v_tilde is None:
            continue
        capacity = network.capacity_map().get((v, v_tilde))
        if capacity is None or capacity + _EPS >= 2 * demand:
            continue
        # Old flow still departs (v, v~) at or after the new flow's arrival?
        drain = drains.get(v)
        if drain is None or drain < t_arrival:
            continue
        v_bar = instance.old_predecessor(v)
        if v_bar is not None and v_bar in pending_set and v_bar != v_i:
            relations.append((v_bar, v_i))
            marked.add(v_bar)
            marked.add(v_i)
        else:
            # The feeder has been updated (or is the flow itself): the old
            # flow will drain with time; v_i just has to wait.
            deferred.add(v_i)

    chains, has_cycle = merge_relations(relations, pending)
    return DependencySet(chains=chains, deferred=deferred, has_cycle=has_cycle)


def merge_relations(
    relations: Sequence[Tuple[Node, Node]], pending: Sequence[Node]
) -> Tuple[List[List[Node]], bool]:
    """Merge pairwise relations on common switches into ordered chains.

    Follows the paper's line 12 ("merge the dependency relation set with the
    common element"): relations form a precedence digraph; each weakly
    connected component is linearised topologically into one chain.  A
    cyclic component sets the cycle flag.

    Returns:
        ``(chains, has_cycle)`` -- chains cover every pending switch
        (singletons for unconstrained ones) in a deterministic order.
    """
    successors: Dict[Node, List[Node]] = {}
    indegree: Dict[Node, int] = {}
    members: Dict[Node, None] = {}
    for before, after in relations:
        successors.setdefault(before, []).append(after)
        indegree[after] = indegree.get(after, 0) + 1
        indegree.setdefault(before, 0)
        members.setdefault(before)
        members.setdefault(after)

    # Kahn's algorithm per component; pending order keeps output stable.
    # The stable-key index is built once (an earlier version rebuilt it on
    # every comparison call, which made this merge quadratic in |pending|
    # per time step and the scheduler cubic overall on chain-heavy
    # instances); a heap of (key, node) replaces re-sorting the ready list
    # after every single append.
    index = {node: i for i, node in enumerate(pending)}
    fallback = len(index)
    order: List[Node] = []
    heap = [(index.get(node, fallback), node) for node in members if indegree[node] == 0]
    heapq.heapify(heap)
    indegree = dict(indegree)
    while heap:
        _, node = heapq.heappop(heap)
        order.append(node)
        for nxt in successors.get(node, ()):  # decrement downstream
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(heap, (index.get(nxt, fallback), nxt))
    has_cycle = len(order) < len(members)

    # Group the topological order into weakly connected components.
    component: Dict[Node, int] = {}
    parent: Dict[Node, Node] = {node: node for node in members}

    def find(node: Node) -> Node:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for before, after in relations:
        ra, rb = find(before), find(after)
        if ra != rb:
            parent[ra] = rb

    chains_by_root: Dict[Node, List[Node]] = {}
    for node in order:
        chains_by_root.setdefault(find(node), []).append(node)

    chains = list(chains_by_root.values())
    covered = set(members)
    for node in pending:
        if node not in covered:
            chains.append([node])
    chains.sort(key=lambda chain: index.get(chain[0], fallback))
    return chains, has_cycle


def _stable_key(pending: Sequence[Node]):
    index = {node: i for i, node in enumerate(pending)}
    return lambda node: index.get(node, len(index))


# ----------------------------------------------------------------------
# Incremental engine
# ----------------------------------------------------------------------
_INF = float("inf")

# Verdict kinds for one pending switch at one time step.
_NONE = 0  # no relation: v_i is unconstrained by Algorithm 3
_REL = 1  # relation (v_bar -> v_i): the partner must update (and drain) first
_DEFER = 2  # v_i must simply wait for in-flight old traffic to drain

# One cached verdict: (kind, partner, expires) -- valid for every time
# step ``t <= expires`` until an invalidation event drops it.
_Verdict = Tuple[int, Optional[Node], float]


class DependencyState:
    """Incremental Algorithm 3: persist the relation structure across steps.

    :func:`dependency_relations` recomputes every pending switch's
    constraint from scratch at every time step -- including an O(old path)
    drain table -- which makes Algorithm 2 accidentally quadratic on
    instances whose pending set stays large (the scheduler's loop is
    O(steps x pending) even before the tracker does any work).  This class
    keeps that per-switch work **across** time steps and recomputes only
    what last round's commits (and the passage of time itself) invalidated.

    What is cached per pending switch ``v_i`` (the *verdict*): whether
    Algorithm 3 emits no constraint, a relation ``v_bar -> v_i``, or a
    deferral.  A verdict depends on (a) the forwarding rule its examined
    switch ``v`` applies when the new flow arrives, (b) the drain time of
    old flow through ``v`` and (c) the pending status of ``v``'s old-path
    predecessor.  The **invalidation rule** is therefore:

    * committing switch ``a`` drops the verdicts of ``a`` itself, of every
      ``v_i`` whose examined switch is ``a`` (rule change at ``a``), and of
      every ``v_i`` whose relation partner is ``a`` (the relation collapses
      into a deferral);
    * a commit on the old path lowers the drain-time prefix minima from its
      path position up to the first position whose minimum is already as
      low; verdicts examining a switch in that range are dropped.  The
      minima are kept as a staircase of breakpoints and read by bisection
      (:meth:`drain`), so a commit costs the steps it swallows plus one
      pass over the *watched* switches, never a walk along the path;
    * time passing needs no event: each verdict stores the last step it is
      valid for (``applied[v] - delay(v_i, v) - 1`` when ``v``'s committed
      rule flip is still ahead of the new flow's arrival, and
      ``drain(v) - delay(v_i, v)`` while an active drain constraint binds,
      both of which are threshold crossings of the growing arrival time
      ``t + delay``) and is recomputed lazily once ``t`` passes it.

    The per-step rebuild walks the pending order once, reading cached
    verdicts (two dict lookups each) and re-running the paper's ``marked``
    merge logic -- the relation *set* stays order-dependent exactly as
    printed, so the output is field-for-field identical to the from-scratch
    function (a property test pins this over hundreds of seeded instances).
    When nothing was committed and no verdict expired, the previous
    :class:`DependencySet` is returned outright.
    """

    def __init__(self, instance: UpdateInstance, pending: Sequence[Node]) -> None:
        self.instance = instance
        self._pending: Dict[Node, None] = dict.fromkeys(pending)
        self._applied: Dict[Node, int] = {}
        self._verdicts: Dict[Node, _Verdict] = {}
        # watchers[x] = pending switches whose verdict examined switch x
        # (as next hop / drain gate) or relies on x as relation partner.
        self._watch_hop: Dict[Node, Set[Node]] = {}
        self._watch_pred: Dict[Node, Set[Node]] = {}
        # Drain staircase: the prefix minima of applied[a] - off(a) along
        # the old path (see :func:`drain_table`) as breakpoints -- ascending
        # positions, strictly falling keys.  The minimum at a position is
        # the key of the last breakpoint at or before it; before the first
        # breakpoint old flow never stops.
        self._old_index = instance.old_path_index
        self._offsets = instance.old_path_offsets
        self._stair_pos: List[int] = []
        self._stair_key: List[int] = []
        self._cache: Optional[DependencySet] = None
        self._cache_valid_until = -_INF
        self._dirty = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[Node]:
        """The pending switches, in their stable scheduling order."""
        return list(self._pending)

    def relations(self, t: int) -> DependencySet:
        """The dependency relation set ``O_t`` (equal to the from-scratch
        :func:`dependency_relations` on the same pending/applied state)."""
        if self._cache is not None and not self._dirty and t <= self._cache_valid_until:
            return self._cache
        pending_list = list(self._pending)
        verdicts = self._verdicts
        relations: List[Tuple[Node, Node]] = []
        deferred: Set[Node] = set()
        marked: Set[Node] = set()
        valid_until = _INF
        for v_i in pending_list:
            entry = verdicts.get(v_i)
            if entry is None or t > entry[2]:
                entry = self._compute(v_i, t)
            if entry[2] < valid_until:
                valid_until = entry[2]
            if v_i in marked:
                continue
            kind = entry[0]
            if kind == _REL:
                relations.append((entry[1], v_i))
                marked.add(entry[1])
                marked.add(v_i)
            elif kind == _DEFER:
                deferred.add(v_i)
        chains, has_cycle = merge_relations(relations, pending_list)
        deps = DependencySet(chains=chains, deferred=deferred, has_cycle=has_cycle)
        self._cache = deps
        self._cache_valid_until = valid_until
        self._dirty = False
        return deps

    def drain(self, node: Node) -> Optional[float]:
        """Last time old flow departs ``node`` (its :func:`drain_table` entry).

        ``None`` off the old path, ``inf`` while no switch at or before
        ``node`` has been committed.
        """
        position = self._old_index.get(node)
        if position is None:
            return None
        step = bisect_right(self._stair_pos, position) - 1
        if step < 0:
            return _INF
        return self._stair_key[step] - 1 + self._offsets[node]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def commit(self, nodes: Sequence[Node], time: int) -> None:
        """Record that ``nodes`` were committed to update at ``time``.

        Applies the invalidation rule documented on the class: dropped
        verdicts are recomputed lazily by the next :meth:`relations` call.
        """
        verdicts = self._verdicts
        old_index = self._old_index
        lowered: List[Tuple[int, int]] = []
        for node in nodes:
            self._pending.pop(node, None)
            self._applied[node] = time
            verdicts.pop(node, None)
            position = old_index.get(node)
            if position is not None:
                stop = self._lower_staircase(position, time - self._offsets[node])
                if stop is not None:
                    lowered.append((position, stop))
        dropped = list(nodes)
        # Only watched switches can hold a verdict on a changed drain, and
        # there are at most len(pending) of them.
        for start, stop in lowered:
            dropped.extend(
                watched
                for watched in self._watch_hop
                if start <= old_index.get(watched, -1) < stop
            )
        for node in dropped:
            for watcher in self._watch_hop.pop(node, ()):
                verdicts.pop(watcher, None)
        for node in nodes:
            for watcher in self._watch_pred.pop(node, ()):
                verdicts.pop(watcher, None)
        self._dirty = True

    def _lower_staircase(self, position: int, key: int) -> Optional[int]:
        """Propagate ``applied[a] - off(a)`` into the prefix minima.

        The minima are non-increasing along the path, so the positions the
        new key lowers form a contiguous run ``[position, stop)`` ending at
        the first later breakpoint already at or below the key.  Returns
        ``stop``, or ``None`` when the minimum at ``position`` is already
        that low and nothing changes.
        """
        stair_pos, stair_key = self._stair_pos, self._stair_key
        step = bisect_right(stair_pos, position)
        if step and stair_key[step - 1] <= key:
            return None
        end = step
        while end < len(stair_pos) and stair_key[end] > key:
            end += 1
        if end == len(stair_pos):
            stop = len(self.instance.old_path)
        else:
            stop = stair_pos[end]
            if stair_key[end] == key:
                end += 1  # same level from here on: keys stay strictly falling
        stair_pos[step:end] = [position]
        stair_key[step:end] = [key]
        return stop

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def _compute(self, v_i: Node, t: int) -> _Verdict:
        """(Re)compute and cache the verdict of ``v_i`` at step ``t``.

        Mirrors the per-switch body of :func:`dependency_relations` exactly,
        additionally deriving the verdict's validity window and registering
        the invalidation watchers.
        """
        instance = self.instance
        v = instance.new_next_hop(v_i)
        if v is None or v == instance.destination:
            entry: _Verdict = (_NONE, None, _INF)
            self._verdicts[v_i] = entry
            return entry
        network = instance.network
        delay = network.delay(v_i, v)
        t_arrival = t + delay
        when = self._applied.get(v)
        expires = _INF
        if when is not None and when <= t_arrival:
            v_tilde = instance.new_next_hop(v)
        else:
            v_tilde = instance.old_next_hop(v)
            if when is not None:
                # The committed rule flip at v is still ahead of the new
                # flow's arrival; the old-rule reading holds while
                # t + delay < when.
                expires = when - delay - 1
        self._watch_hop.setdefault(v, set()).add(v_i)
        kind, partner = _NONE, None
        if v_tilde is not None:
            capacity = network.capacity_map().get((v, v_tilde))
            if capacity is not None and capacity + _EPS < 2 * instance.demand:
                drain = self.drain(v)
                if drain is not None and drain >= t_arrival:
                    if drain != _INF:
                        expires = min(expires, drain - delay)
                    v_bar = instance.old_predecessor(v)
                    if v_bar is not None and v_bar in self._pending and v_bar != v_i:
                        kind, partner = _REL, v_bar
                        self._watch_pred.setdefault(v_bar, set()).add(v_i)
                    else:
                        kind = _DEFER
        entry = (kind, partner, expires)
        self._verdicts[v_i] = entry
        return entry
