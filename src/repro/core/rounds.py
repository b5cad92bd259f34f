"""Round-based loop-freedom machinery.

Order-replacement protocols (Ludwig et al., PODC'15) update switches in
*rounds*: within a round the data plane applies the new rules in an
arbitrary, asynchronous order.  A round is transiently loop-free for every
interleaving iff the *union forwarding graph* -- already-updated switches
using their new rule, this round's switches keeping **both** rules, all
others their old rule -- is acyclic: a simple cycle traverses each switch at
most once and hence uses at most one of its out-edges, so any union-graph
cycle is realised by some interleaving and vice versa.

This module provides the exact safety check and a greedy maximal-round
construction; it is shared by the OR baseline and by Chronus' best-effort
fallback for infeasible instances.  The check exists twice on purpose: the
dict-graph functions are the definition, read off the paragraph above, and
:class:`UnionGraphIds` is the id-space oracle every planner runs on
(``tests/test_rounds.py`` holds the two together).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.instance import UpdateInstance
from repro.network.graph import Node


def union_forwarding_edges(
    instance: UpdateInstance,
    updated: Set[Node],
    in_round: Set[Node],
) -> Dict[Node, List[Node]]:
    """Out-edges of the union forwarding graph for one round.

    Args:
        instance: The update instance.
        updated: Switches already running their new rule.
        in_round: Switches updating in the round under test.
    """
    edges: Dict[Node, List[Node]] = {}
    nodes = set(instance.old_config) | set(instance.new_config)
    for node in nodes:
        outs: List[Node] = []
        old_hop = instance.old_next_hop(node)
        new_hop = instance.new_next_hop(node)
        if node in updated:
            if new_hop is not None:
                outs.append(new_hop)
        elif node in in_round:
            outs.extend(hop for hop in (old_hop, new_hop) if hop is not None)
        else:
            if old_hop is not None:
                outs.append(old_hop)
        edges[node] = outs
    return edges


def has_cycle(edges: Dict[Node, List[Node]]) -> bool:
    """Iterative three-colour cycle detection on a small digraph."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Node, int] = {}

    for start in edges:
        if colour.get(start, WHITE) != WHITE:
            continue
        stack: List[Tuple[Node, int]] = [(start, 0)]
        colour[start] = GREY
        while stack:
            node, index = stack[-1]
            children = edges.get(node, ())
            if index < len(children):
                stack[-1] = (node, index + 1)
                child = children[index]
                state = colour.get(child, WHITE)
                if state == GREY:
                    return True
                if state == WHITE:
                    colour[child] = GREY
                    stack.append((child, 0))
            else:
                colour[node] = BLACK
                stack.pop()
    return False


def round_is_loop_free(
    instance: UpdateInstance,
    updated: Set[Node],
    in_round: Iterable[Node],
) -> bool:
    """Whether updating ``in_round`` together (after ``updated``) is safe
    against transient forwarding loops under *every* interleaving."""
    return not has_cycle(union_forwarding_edges(instance, updated, set(in_round)))


class UnionGraphIds:
    """Id-space union-graph safety oracle for rounds of one instance.

    Encodes the old/new next-hop tables as flat int lists over interned
    switch ids (shape borrowed from
    :class:`repro.core.intervals_array.InstanceArrays`, but numpy-free so
    neither the OR search nor the best-effort fallback needs the
    dependency).  A full check walks the implicit union graph with an
    iterative three-colour DFS over a byte array -- no per-check dict graph
    build -- and growing a round costs one reachability walk per candidate
    (:meth:`maximal_safe_round`), not a full check each.
    """

    __slots__ = ("names", "id_of", "n", "next_old", "next_new", "starts")

    def __init__(self, instance: UpdateInstance) -> None:
        names = list(instance.network.switches)
        id_of = {name: i for i, name in enumerate(names)}
        self.names = names
        self.id_of = id_of
        self.n = len(names)
        next_old = [-1] * self.n
        for src, dst in instance.old_config.items():
            next_old[id_of[src]] = id_of[dst]
        next_new = [-1] * self.n
        for src, dst in instance.new_config.items():
            next_new[id_of[src]] = id_of[dst]
        self.next_old = next_old
        self.next_new = next_new
        # Only switches with at least one out-edge can be on a cycle.
        self.starts = [
            i for i in range(self.n) if next_old[i] >= 0 or next_new[i] >= 0
        ]

    def round_is_safe(self, updated: bytearray, in_round: bytearray) -> bool:
        """Acyclicity of the union graph (both rules for in-round switches).

        Semantically identical to :func:`round_is_loop_free`; only the
        graph representation differs.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        colour = bytearray(self.n)
        next_old = self.next_old
        next_new = self.next_new

        def out_edges(v: int) -> Tuple[int, ...]:
            if updated[v]:
                new = next_new[v]
                return (new,) if new >= 0 else ()
            if in_round[v]:
                return tuple(h for h in (next_old[v], next_new[v]) if h >= 0)
            old = next_old[v]
            return (old,) if old >= 0 else ()

        for start in self.starts:
            if colour[start] != WHITE:
                continue
            stack: List[Tuple[int, Tuple[int, ...], int]] = [
                (start, out_edges(start), 0)
            ]
            colour[start] = GREY
            while stack:
                v, children, index = stack[-1]
                if index < len(children):
                    stack[-1] = (v, children, index + 1)
                    child = children[index]
                    state = colour[child]
                    if state == GREY:
                        return False
                    if state == WHITE:
                        colour[child] = GREY
                        stack.append((child, out_edges(child), 0))
                else:
                    colour[v] = BLACK
                    stack.pop()
        return True

    def _closes_cycle(self, updated: bytearray, in_round: bytearray, node: int) -> bool:
        """Whether ``node`` joining the *acyclic* round ``in_round`` closes a cycle.

        Joining adds exactly one edge to the union graph, ``node`` to its
        new next hop, so the graph stays acyclic iff ``node`` cannot be
        reached from there.
        """
        next_old = self.next_old
        next_new = self.next_new
        first = next_new[node]
        if first < 0 or first == next_old[node]:
            return False  # no edge the graph does not already have
        seen = bytearray(self.n)
        stack = [first]
        while stack:
            v = stack.pop()
            while v >= 0 and not seen[v]:
                if v == node:
                    return True
                seen[v] = 1
                if updated[v]:
                    v = next_new[v]
                else:
                    if in_round[v] and next_new[v] >= 0:
                        stack.append(next_new[v])
                    v = next_old[v]
        return False

    def maximal_safe_round(
        self,
        updated: bytearray,
        candidates: Sequence[int],
        deadline: Optional[float] = None,
    ) -> Optional[List[int]]:
        """Greedily absorb every candidate that keeps the round loop-free.

        The candidates accepted, in the order given: exactly those a full
        :meth:`round_is_safe` of "accepted so far plus this one" accepts.
        One full check of the base graph is enough -- over a cyclic base
        (a forced round leaves one) every round is unsafe and nothing is
        accepted -- and from then on the graph is acyclic before each
        candidate, which adds one edge.  ``None`` once ``deadline`` (a
        ``time.monotonic()`` value, looked at every 64 candidates) passed.
        """
        in_round = bytearray(self.n)
        if not self.round_is_safe(updated, in_round):
            return []
        accepted: List[int] = []
        for index, node in enumerate(candidates):
            if deadline is not None and index % 64 == 0 and time.monotonic() > deadline:
                return None
            if not self._closes_cycle(updated, in_round, node):
                in_round[node] = 1
                accepted.append(node)
        return accepted


def greedy_loop_free_rounds(
    instance: UpdateInstance,
    pending: Optional[Sequence[Node]] = None,
    updated: Optional[Set[Node]] = None,
    deadline: Optional[float] = None,
) -> List[List[Node]]:
    """Greedy maximal loop-free rounds covering all pending switches.

    Each round greedily absorbs every pending switch that keeps the round
    loop-free.  Switches that can never join a safe round (possible with
    exotic drain rules) are force-updated alone in a final best-effort round
    -- callers can detect this by re-checking the rounds.

    Args:
        deadline: ``time.monotonic()`` value after which the remaining
            switches are dumped into one final (unchecked) round; used by
            budgeted callers such as the Fig. 10 harness.

    Returns:
        The round partition, first round first.
    """
    if pending is None:
        pending = list(instance.switches_to_update)
    graph = UnionGraphIds(instance)
    id_of = graph.id_of
    names = graph.names
    remaining: List[int] = [id_of[node] for node in pending]
    done = bytearray(graph.n)
    for node in updated or ():
        done[id_of[node]] = 1
    rounds: List[List[Node]] = []
    while remaining:
        if deadline is not None and time.monotonic() > deadline:
            rounds.append([names[i] for i in remaining])
            break
        # No safe single update exists: force the first switch through to
        # guarantee termination (the resulting loop is the instance's).
        current = graph.maximal_safe_round(done, remaining) or remaining[:1]
        for node in current:
            done[node] = 1
        in_round = set(current)
        remaining = [node for node in remaining if node not in in_round]
        rounds.append([names[i] for i in current])
    return rounds


def rounds_are_loop_free(instance: UpdateInstance, rounds: Sequence[Sequence[Node]]) -> bool:
    """Validate a full round partition against the union-graph criterion."""
    done: Set[Node] = set()
    for round_nodes in rounds:
        if not round_is_loop_free(instance, done, set(round_nodes)):
            return False
        done.update(round_nodes)
    return True
