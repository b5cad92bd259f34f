"""Topology and workload generators.

The paper's simulations fix the initial routing path and draw the final
routing path at random ("the final path is based on random routing"), with
both paths sharing source and destination.  :func:`two_path_topology`
reproduces that workload; the remaining generators provide classic fabrics
(linear, ring, Waxman, fat-tree) for the examples and for stress tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.network.graph import DEFAULT_CAPACITY, DEFAULT_DELAY, Network, Node
from repro.network.paths import Path, as_path, path_links


@dataclass(frozen=True)
class TwoPathTopology:
    """A network together with an initial and a final routing path.

    This is the raw material of one *update instance*: both paths share
    their first (source) and last (destination) node.
    """

    network: Network
    old_path: Path
    new_path: Path

    def __post_init__(self) -> None:
        if self.old_path[0] != self.new_path[0]:
            raise ValueError("old and new path must share their source")
        if self.old_path[-1] != self.new_path[-1]:
            raise ValueError("old and new path must share their destination")

    @property
    def source(self) -> Node:
        return self.old_path[0]

    @property
    def destination(self) -> Node:
        return self.old_path[-1]


def switch_names(count: int, prefix: str = "v") -> List[Node]:
    """``[v1, v2, ..., v<count>]`` -- the paper's switch naming."""
    if count < 2:
        raise ValueError("need at least two switches")
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def linear_topology(
    count: int,
    capacity: float = DEFAULT_CAPACITY,
    delay: int = DEFAULT_DELAY,
) -> Tuple[Network, Path]:
    """A chain ``v1 -> v2 -> ... -> vn`` and the path along it."""
    nodes = switch_names(count)
    net = Network()
    for src, dst in zip(nodes, nodes[1:]):
        net.add_link(src, dst, capacity=capacity, delay=delay)
    return net, as_path(nodes)


def ring_topology(
    count: int,
    capacity: float = DEFAULT_CAPACITY,
    delay: int = DEFAULT_DELAY,
    bidirectional: bool = True,
) -> Network:
    """A ring over ``count`` switches, optionally with both directions."""
    nodes = switch_names(count)
    net = Network()
    for i, src in enumerate(nodes):
        dst = nodes[(i + 1) % count]
        net.add_link(src, dst, capacity=capacity, delay=delay)
        if bidirectional:
            net.add_link(dst, src, capacity=capacity, delay=delay)
    return net


def two_path_topology(
    count: int,
    rng: Optional[random.Random] = None,
    capacity: float = DEFAULT_CAPACITY,
    delay: int = DEFAULT_DELAY,
    max_delay: Optional[int] = None,
    detour_fraction: float = 1.0,
) -> TwoPathTopology:
    """The paper's simulation workload: fixed initial path, random final path.

    The initial path is the chain ``v1 -> ... -> vn``.  The final path starts
    and ends at the same source/destination and routes through a random
    subsequence (in random order) of the intermediate switches; links missing
    from the chain are added on demand.  With ``detour_fraction`` below 1.0
    only that fraction of intermediate switches appears on the final path.

    Args:
        count: Number of switches ``n``; the initial path spans all of them.
        rng: Random source; a fresh unseeded one is used when omitted.
        capacity: Uniform link capacity (the paper uses links as tight as the
            flow demand, e.g. 5 Mbps links carrying a 5 Mbps flow).
        delay: Uniform link delay, used when ``max_delay`` is ``None``.
        max_delay: When given, each link's delay is drawn uniformly from
            ``[1, max_delay]`` (the Mininet setup draws delays from a range).
        detour_fraction: Fraction of intermediate switches on the final path.

    Returns:
        A :class:`TwoPathTopology` with both paths present in the network.
    """
    if rng is None:
        rng = random.Random()
    if not 0.0 <= detour_fraction <= 1.0:
        raise ValueError("detour_fraction must be within [0, 1]")

    nodes = switch_names(count)
    source, destination = nodes[0], nodes[-1]
    middle = nodes[1:-1]

    def draw_delay() -> int:
        if max_delay is None:
            return delay
        return rng.randint(1, max_delay)

    net = Network()
    old_path = as_path(nodes)
    for src, dst in path_links(old_path):
        net.add_link(src, dst, capacity=capacity, delay=draw_delay())

    keep = max(0, round(len(middle) * detour_fraction))
    detour = rng.sample(middle, keep) if keep else []
    new_path = as_path([source, *detour, destination])
    for src, dst in path_links(new_path):
        if not net.has_link(src, dst):
            net.add_link(src, dst, capacity=capacity, delay=draw_delay())
    return TwoPathTopology(network=net, old_path=old_path, new_path=new_path)


def reversal_topology(
    count: int,
    capacity: float = DEFAULT_CAPACITY,
    delay: int = DEFAULT_DELAY,
) -> TwoPathTopology:
    """An adversarial instance: the final path reverses the chain's middle.

    Old path ``v1 -> v2 -> ... -> vn``; new path
    ``v1 -> v(n-1) -> v(n-2) -> ... -> v2 -> vn``.  Every middle link of the
    new path is the reversal of an old link, which maximises transient-loop
    hazards and forces a long sequential update schedule.
    """
    nodes = switch_names(count)
    net = Network()
    old_path = as_path(nodes)
    for src, dst in path_links(old_path):
        net.add_link(src, dst, capacity=capacity, delay=delay)
    new_nodes = [nodes[0], *reversed(nodes[1:-1]), nodes[-1]]
    new_path = as_path(new_nodes)
    for src, dst in path_links(new_path):
        if not net.has_link(src, dst):
            net.add_link(src, dst, capacity=capacity, delay=delay)
    return TwoPathTopology(network=net, old_path=old_path, new_path=new_path)


def segmented_reversal_topology(
    count: int,
    rng: Optional[random.Random] = None,
    segments: int = 4,
    max_segment_length: int = 12,
    capacity: float = DEFAULT_CAPACITY,
    delay: int = DEFAULT_DELAY,
) -> TwoPathTopology:
    """Locally rerouted final paths: a few reversed segments on a long chain.

    At the scale of the paper's Figs. 10 and 11 (hundreds to thousands of
    switches with update times of ~15 time units) the random final route
    must differ from the initial one only *locally*.  This generator
    reverses a handful of disjoint middle segments of the chain -- each a
    copy of the paper's Fig. 1 pattern, which needs a short sequential
    timed schedule -- leaving the rest of the path untouched.

    Args:
        count: Total switches (the chain spans all of them).
        rng: Random source.
        segments: Number of reversed segments (independent of ``count``).
        max_segment_length: Longest reversed segment (drives the makespan).
        capacity: Uniform link capacity.
        delay: Uniform link delay.
    """
    if rng is None:
        rng = random.Random()
    nodes = switch_names(count)
    net = Network()
    old_path = as_path(nodes)
    for src, dst in path_links(old_path):
        net.add_link(src, dst, capacity=capacity, delay=delay)

    # Choose disjoint segments [a, b] (indices into the chain's middle).
    chosen: List[Tuple[int, int]] = []
    occupied: set = set()
    attempts = 0
    while len(chosen) < segments and attempts < segments * 20:
        attempts += 1
        length = rng.randint(3, max(3, max_segment_length))
        start = rng.randint(1, max(1, count - length - 2))
        if any(i in occupied for i in range(start, start + length)):
            continue
        # The segment must end before the destination (index count - 1);
        # on short chains the draw can overrun it, so shorten it to fit.
        length = min(length, count - 1 - start)
        if length < 3:
            continue  # no room left for a reversal on this chain
        occupied.update(range(start, start + length))
        chosen.append((start, start + length - 1))
    chosen.sort()

    new_nodes: List[Node] = []
    index = 0
    for a, b in chosen:
        new_nodes.extend(nodes[index:a])
        # The Fig. 1 pattern: enter at nodes[a], traverse the segment's
        # interior in reverse, exit to nodes[b + 1] via nodes[a]'s successor
        # order: a, b, b-1, ..., a+1, then continue at b+1.
        new_nodes.append(nodes[a])
        new_nodes.extend(reversed(nodes[a + 1: b + 1]))
        index = b + 1
    new_nodes.extend(nodes[index:])
    new_path = as_path(new_nodes)

    # New links spanning k old-path hops get delay k * delay: the detour is
    # at least as slow as the segment it replaces (phi(p) >= phi(q), the
    # feasibility condition of Algorithm 1), so a congestion-free timed
    # schedule exists -- an adjacent swap with equal delays provably has
    # none under tight capacities.
    position = {node: i for i, node in enumerate(nodes)}
    for src, dst in path_links(new_path):
        if not net.has_link(src, dst):
            span = max(1, abs(position[dst] - position[src]))
            net.add_link(src, dst, capacity=capacity, delay=span * delay)
    return TwoPathTopology(network=net, old_path=old_path, new_path=new_path)


def waxman_topology(
    count: int,
    rng: Optional[random.Random] = None,
    alpha: float = 0.4,
    beta: float = 0.6,
    capacity: float = DEFAULT_CAPACITY,
    max_delay: int = 3,
) -> Network:
    """A Waxman random graph: classic WAN-like topology generator.

    Switches are placed uniformly in the unit square; a bidirectional link
    between ``u`` and ``v`` at distance ``d`` exists with probability
    ``alpha * exp(-d / (beta * sqrt(2)))``.  Link delay grows with distance.
    """
    if rng is None:
        rng = random.Random()
    nodes = switch_names(count)
    coords = {node: (rng.random(), rng.random()) for node in nodes}
    net = Network()
    for node in nodes:
        net.add_switch(node)
    max_dist = 2 ** 0.5
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            ux, uy = coords[u]
            vx, vy = coords[v]
            dist = ((ux - vx) ** 2 + (uy - vy) ** 2) ** 0.5
            prob = alpha * (2.718281828459045 ** (-dist / (beta * max_dist)))
            if rng.random() < prob:
                hop_delay = max(1, round(dist / max_dist * max_delay))
                net.add_link(u, v, capacity=capacity, delay=hop_delay)
                net.add_link(v, u, capacity=capacity, delay=hop_delay)
    return net


def fat_tree_topology(k: int, capacity: float = DEFAULT_CAPACITY, delay: int = DEFAULT_DELAY) -> Network:
    """A ``k``-ary fat-tree (``k`` even): the canonical data-center fabric.

    Switch naming: ``core<i>``, ``agg<pod>_<i>``, ``edge<pod>_<i>``.  All
    links are bidirectional.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError("fat-tree arity k must be a positive even number")
    half = k // 2
    net = Network()
    cores = [f"core{i}" for i in range(half * half)]
    for pod in range(k):
        aggs = [f"agg{pod}_{i}" for i in range(half)]
        edges = [f"edge{pod}_{i}" for i in range(half)]
        for agg in aggs:
            for edge in edges:
                net.add_link(agg, edge, capacity=capacity, delay=delay)
                net.add_link(edge, agg, capacity=capacity, delay=delay)
        for i, agg in enumerate(aggs):
            for j in range(half):
                core = cores[i * half + j]
                net.add_link(core, agg, capacity=capacity, delay=delay)
                net.add_link(agg, core, capacity=capacity, delay=delay)
    return net


def emulation_topology(
    count: int = 10,
    capacity_mbps: float = 5.0,
    rng: Optional[random.Random] = None,
    max_delay: int = 4,
) -> TwoPathTopology:
    """The Mininet-experiment analogue: a small tight-capacity topology.

    Ten switches with 5 Mbps links, link delays drawn from a small integer
    range, fixed initial path, random final path -- mirroring Section V-A's
    setup (the paper draws delays between 5 ms and 1 s; we keep integer
    steps and let the simulator map steps to wall-clock seconds).
    """
    return two_path_topology(
        count,
        rng=rng,
        capacity=capacity_mbps,
        max_delay=max_delay,
    )
