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
fallback for infeasible instances.  :class:`UnionGraphIds` is the
id-space oracle every planner runs on; the dict-graph definition, read off
the paragraph above, is the test oracle ``tests/test_rounds.py`` holds it
to.  Its switch ids and
next-hop tables are the instance's one id-space encoding of the configs:
:func:`union_graph_ids` caches it on the instance, and the array tracker's
:class:`~repro.core.intervals_array.InstanceArrays` reads the same object.
"""

from __future__ import annotations

import time
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import UpdateInstance
from repro.network.graph import Node


class UnionGraphIds:
    """Id-space encoding of one instance's routing, and its union-graph oracle.

    Switch ids (``names`` / ``id_of``, network insertion order) and the
    old/new next-hop tables as flat int lists (``next_old`` / ``next_new``,
    -1 without a rule): the one place they are built from the configs.
    Cached per instance (:func:`union_graph_ids`) and shared by the OR
    search, the best-effort fallback and the array tracker's
    :class:`repro.core.intervals_array.InstanceArrays`, none of which
    writes to it.  A full check walks the implicit union graph with an
    iterative three-colour DFS over a byte array -- no per-check dict graph
    build -- and growing a round costs one reachability walk per candidate
    (:meth:`maximal_safe_round`), not a full check each.
    """

    __slots__ = ("names", "id_of", "n", "next_old", "next_new", "_starts")

    def __init__(self, instance: UpdateInstance) -> None:
        names = instance.network.switches
        id_of = dict(zip(names, range(len(names))))
        self.names = names
        self.id_of = id_of
        self.n = len(names)
        self.next_old = _next_hops(names, id_of, instance.old_config)
        self.next_new = _next_hops(names, id_of, instance.new_config)
        self._starts: Optional[List[int]] = None

    @property
    def starts(self) -> List[int]:
        """The switches with at least one out-edge, the only ones that can
        be on a cycle; built on first use (the array tracker never asks)."""
        if self._starts is None:
            self._starts = [
                i for i, (old, new) in enumerate(zip(self.next_old, self.next_new))
                if old >= 0 or new >= 0
            ]
        return self._starts

    def round_is_safe(self, updated: bytearray, in_round: bytearray) -> bool:
        """Acyclicity of the union graph (both rules for in-round switches).

        Semantically a cycle check of the dict-built union forwarding
        graph (``tests/test_rounds.py`` holds it to one); only the graph
        representation differs.
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


def _next_hops(names: List[Node], id_of: Dict[Node, int], config) -> List[int]:
    """Per switch id, the id its rule in ``config`` forwards to (-1 without one)."""
    return list(map(id_of.get, map(config.get, names), repeat(-1)))


_CACHE_ATTR = "_union_ids"


def union_graph_ids(instance: UpdateInstance) -> UnionGraphIds:
    """The cached :class:`UnionGraphIds` of ``instance``."""
    cached = getattr(instance, _CACHE_ATTR, None)
    if cached is None:
        cached = UnionGraphIds(instance)
        object.__setattr__(instance, _CACHE_ATTR, cached)
    return cached


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
    graph = union_graph_ids(instance)
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

