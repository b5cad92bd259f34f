"""Topology and workload generators.

The paper's simulations fix the initial routing path and draw the final
routing path at random ("the final path is based on random routing"), with
both paths sharing source and destination.  :func:`two_path_topology`
reproduces that workload; the reversal generators build adversarial and
Fig. 10-scale instances, and :func:`waxman_topology` the WAN-like graph of the
maintenance-reroute example.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import filterfalse
from typing import List, Optional, Sequence, Tuple, Union

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


def missing_links(network: Network, path: Sequence[Node]) -> List[Tuple[Node, Node]]:
    """The links of ``path`` that ``network`` lacks, in path order."""
    return list(filterfalse(network.delay_map().__contains__, path_links(path)))


def _delays(
    rng: random.Random, count: int, delay: int, max_delay: Optional[int]
) -> Union[int, List[int]]:
    """``delay`` for ``count`` links, or one draw from ``[1, max_delay]`` each."""
    if max_delay is None:
        return delay
    return [rng.randint(1, max_delay) for _ in range(count)]


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

    net = Network()
    old_path = as_path(nodes)
    net.add_links(
        path_links(old_path), capacity=capacity, delay=_delays(rng, count - 1, delay, max_delay)
    )

    keep = max(0, round(len(middle) * detour_fraction))
    detour = rng.sample(middle, keep) if keep else []
    new_path = as_path([source, *detour, destination])
    missing = missing_links(net, new_path)
    net.add_links(missing, capacity=capacity, delay=_delays(rng, len(missing), delay, max_delay))
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
    net.add_links(path_links(old_path), capacity=capacity, delay=delay)
    new_nodes = [nodes[0], *reversed(nodes[1:-1]), nodes[-1]]
    new_path = as_path(new_nodes)
    net.add_links(missing_links(net, new_path), capacity=capacity, delay=delay)
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
    net.add_links(path_links(old_path), capacity=capacity, delay=delay)

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

    # The Fig. 1 pattern per segment: enter at nodes[a], traverse the
    # segment's interior in reverse, exit to nodes[b + 1] via nodes[a]'s
    # successor -- order a, b, b-1, ..., a+1, then continue at b+1.  Only
    # the detour's links are new: a -> b and a+1 -> b+1 span b - a old-path
    # hops, each reversed link one.
    new_nodes: List[Node] = []
    detour: List[Tuple[Node, Node]] = []
    spans: List[int] = []
    index = 0
    for a, b in chosen:
        new_nodes.extend(nodes[index:a])
        new_nodes.append(nodes[a])
        reversed_segment = nodes[b:a:-1]
        new_nodes.extend(reversed_segment)
        index = b + 1
        detour.append((nodes[a], nodes[b]))
        detour.extend(zip(reversed_segment, reversed_segment[1:]))
        detour.append((nodes[a + 1], nodes[b + 1]))
        spans += [b - a, *[1] * (b - a - 1), b - a]
    new_nodes.extend(nodes[index:])
    new_path = as_path(new_nodes)

    # New links spanning k old-path hops get delay k * delay: the detour is
    # at least as slow as the segment it replaces (phi(p) >= phi(q), the
    # feasibility condition of Algorithm 1), so a congestion-free timed
    # schedule exists -- an adjacent swap with equal delays provably has
    # none under tight capacities.
    net.add_links(detour, capacity=capacity, delay=[span * delay for span in spans])
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
