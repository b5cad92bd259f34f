"""Update instances: the object every Chronus algorithm consumes.

An :class:`UpdateInstance` bundles the network, the dynamic flow and the two
routing configurations (initial/"solid line" and final/"dashed line" in the
paper's figures).  It also pins down *which* switches need an update: those
whose next hop changes, plus those that receive a brand-new rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.network.flows import Flow
from repro.network.graph import Network, Node, network_from_links
from repro.network.paths import Path, arrival_offsets, as_path, path_delay, path_links
from repro.network.topology import (
    TwoPathTopology,
    missing_links,
    reversal_topology,
    segmented_reversal_topology,
    two_path_topology,
)

Config = Dict[Node, Node]


@dataclass(frozen=True)
class UpdateInstance:
    """One network-update problem: move ``flow`` from ``old_path`` to ``new_path``.

    Attributes:
        network: The directed graph with link capacities and delays.
        flow: The dynamic flow being rerouted (source, destination, demand).
        old_config: Next-hop mapping of the initial routing ("solid lines").
        new_config: Next-hop mapping of the final routing ("dashed lines").
            May also assign drain rules to switches that only appear on the
            old path (the paper's Fig. 1 updates ``v5`` although it is not
            on the final path).
    """

    network: Network
    flow: Flow
    old_config: Config
    new_config: Config

    def __post_init__(self) -> None:
        # Each fact is checked once: tracing a config to the destination
        # proves its path simple (a repeated switch would cycle forever), and
        # the hop check below covers every path hop, since each is a rule.
        self.old_path
        self.new_path
        links = self.network.delay_map()
        for config_name, config in (("old", self.old_config), ("new", self.new_config)):
            if not links.keys() >= config.items():
                node, nxt = next(rule for rule in config.items() if rule not in links)
                raise ValueError(
                    f"{config_name} config routes {node!r} -> {nxt!r} over a missing link"
                )
        if self.flow.destination in self.old_config or self.flow.destination in self.new_config:
            raise ValueError("the destination switch must not forward the flow")

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @property
    def source(self) -> Node:
        return self.flow.source

    @property
    def destination(self) -> Node:
        return self.flow.destination

    @property
    def demand(self) -> float:
        return self.flow.demand

    @cached_property
    def old_path(self) -> Path:
        """The initial routing path traced through ``old_config``."""
        return _trace_config(self.old_config, self.source, self.destination, len(self.network))

    @cached_property
    def new_path(self) -> Path:
        """The final routing path traced through ``new_config``."""
        return _trace_config(self.new_config, self.source, self.destination, len(self.network))

    @cached_property
    def old_path_index(self) -> Dict[Node, int]:
        """Position of each old-path switch along the old path."""
        return dict(zip(self.old_path, range(len(self.old_path))))

    @cached_property
    def old_path_offsets(self) -> Dict[Node, int]:
        """Departure-time offset of each old-path switch from the source."""
        return dict(zip(self.old_path, arrival_offsets(self.network, self.old_path)))

    @cached_property
    def switches_to_update(self) -> Tuple[Node, ...]:
        """Switches whose forwarding rule for the flow must change.

        A switch needs an update when its new next hop differs from its old
        one, or when it has a new rule but no old one (rule installation).
        Order follows the old path first (upstream to downstream), then any
        remaining new-config switches in new-path order.
        """
        old_config = self.old_config
        needed = [node for node, nxt in self.new_config.items() if old_config.get(node) != nxt]
        index = self.old_path_index
        ordered: List[Node] = sorted((n for n in needed if n in index), key=index.__getitem__)
        rest = set(needed).difference(ordered)
        if rest:  # switches off the old path: new-path order, then config order
            ordered.extend(n for n in self.new_path if n in rest)
            rest.difference_update(ordered)
            ordered.extend(n for n in needed if n in rest)
        return tuple(ordered)

    def old_next_hop(self, node: Node) -> Optional[Node]:
        """The initial next hop of ``node``, or ``None``."""
        return self.old_config.get(node)

    def new_next_hop(self, node: Node) -> Optional[Node]:
        """The final next hop of ``node``, or ``None``."""
        return self.new_config.get(node)

    def old_predecessor(self, node: Node) -> Optional[Node]:
        """The switch whose *old* rule points at ``node``, if on the old path."""
        index = self.old_path_index.get(node)
        return self.old_path[index - 1] if index else None

    def config_at(self, updated: Mapping[Node, int], time: int) -> Config:
        """The mixed next-hop configuration active at ``time``.

        A switch uses its new rule for departures at times greater than or
        equal to its update time; every other switch uses its old rule.

        Args:
            updated: Mapping ``switch -> update time`` for switches already
                scheduled; unscheduled switches keep their old rule.
            time: The departure time being queried.
        """
        config = dict(self.old_config)
        for node, when in updated.items():
            if when <= time:
                new_hop = self.new_config.get(node)
                if new_hop is None:
                    config.pop(node, None)
                else:
                    config[node] = new_hop
        return config

    @cached_property
    def old_path_delay(self) -> int:
        """``phi(p_init)``."""
        return self.old_path_offsets[self.destination]

    @cached_property
    def new_path_delay(self) -> int:
        """``phi(p_fin)``."""
        return path_delay(self.network, self.new_path)


def _trace_config(config: Config, source: Node, destination: Node, max_hops: int) -> Path:
    """The path ``config`` routes from ``source``; simple whenever it returns."""
    traced = _path_in_rule_order(config, source, destination, max_hops)
    if traced is not None:
        return traced
    nodes: List[Node] = [source]
    current = source
    for _ in range(max_hops + 1):
        if current == destination:
            return tuple(nodes)
        nxt = config.get(current)
        if nxt is None:
            raise ValueError(f"config black-holes the flow at {current!r}")
        nodes.append(nxt)
        current = nxt
    raise ValueError("config contains a forwarding loop")


def _path_in_rule_order(
    config: Config, source: Node, destination: Node, max_hops: int
) -> Optional[Path]:
    """:func:`_trace_config`'s answer when ``config`` lists its rules along
    the path, source first (as :func:`config_from_path` does), else ``None``.

    Checked in whole-list passes: the rules up to the first one into
    ``destination`` start at ``source``, each forwards to the next one's
    switch, there are few enough, and ``destination`` has none (a dict's
    switches are distinct, so the path is simple) -- then the hop-by-hop
    trace takes exactly these rules.
    """
    hops = list(config.values())
    try:
        last = hops.index(destination)
    except ValueError:
        return None
    nodes = list(islice(config, last + 1))
    nodes.append(destination)
    if (
        nodes[0] == source
        and last < max_hops
        and destination not in config
        and hops[:last] == nodes[1:-1]
    ):
        return tuple(nodes)
    return None


def config_from_path(path: Sequence[Node]) -> Config:
    """Next-hop mapping realising ``path``."""
    return dict(path_links(path))


def instance_from_paths(
    network: Network,
    old_path: Sequence[Node],
    new_path: Sequence[Node],
    demand: float = 1.0,
    flow_name: str = "f",
    extra_new_rules: Optional[Mapping[Node, Node]] = None,
) -> UpdateInstance:
    """Build an :class:`UpdateInstance` from two explicit paths.

    Args:
        network: Graph containing both paths.
        old_path: The initial routing path.
        new_path: The final routing path (same endpoints as ``old_path``).
        demand: Flow rate ``d``.
        flow_name: Name used in flow tables and reports.
        extra_new_rules: Additional final-config rules for switches that are
            not on the new path (e.g. drain rules for old-path-only switches).
    """
    old = as_path(old_path)
    new = as_path(new_path)
    if old[0] != new[0] or old[-1] != new[-1]:
        raise ValueError("paths must share source and destination")
    flow = Flow(name=flow_name, source=old[0], destination=old[-1], demand=demand)
    new_config = config_from_path(new)
    if extra_new_rules:
        for node, nxt in extra_new_rules.items():
            if node in new_config:
                raise ValueError(f"extra rule for {node!r} clashes with the new path")
            new_config[node] = nxt
    return UpdateInstance(
        network=network,
        flow=flow,
        old_config=config_from_path(old),
        new_config=new_config,
    )


def instance_from_topology(topo: TwoPathTopology, demand: float = 1.0, flow_name: str = "f") -> UpdateInstance:
    """Wrap a generated :class:`TwoPathTopology` into an instance."""
    return instance_from_paths(
        topo.network, topo.old_path, topo.new_path, demand=demand, flow_name=flow_name
    )


def random_instance(
    count: int,
    seed: Optional[int] = None,
    demand: float = 1.0,
    capacity: float = 1.0,
    max_delay: Optional[int] = None,
    detour_fraction: float = 1.0,
    rng: Optional[random.Random] = None,
) -> UpdateInstance:
    """A random two-path instance per the paper's simulation setup.

    Pass ``rng`` to thread an explicit random stream through (takes
    precedence over ``seed``); otherwise a fresh ``random.Random(seed)``
    is used, so equal seeds give equal instances in any process.
    """
    if rng is None:
        rng = random.Random(seed)
    topo = two_path_topology(
        count,
        rng=rng,
        capacity=capacity,
        max_delay=max_delay,
        detour_fraction=detour_fraction,
    )
    return instance_from_topology(topo, demand=demand)


def reversal_instance(count: int, demand: float = 1.0, capacity: float = 1.0) -> UpdateInstance:
    """The adversarial path-reversal instance (see ``reversal_topology``)."""
    return instance_from_topology(reversal_topology(count, capacity=capacity), demand=demand)


def segmented_instance(
    count: int,
    seed: Optional[int] = None,
    segments: int = 4,
    max_segment_length: int = 12,
    demand: float = 1.0,
    capacity: float = 1.0,
    rng: Optional[random.Random] = None,
) -> UpdateInstance:
    """A large-scale locally-rerouted instance (Figs. 10/11 workload).

    ``rng`` takes precedence over ``seed`` (see :func:`random_instance`).
    """
    if rng is None:
        rng = random.Random(seed)
    topo = segmented_reversal_topology(
        count,
        rng=rng,
        segments=segments,
        max_segment_length=max_segment_length,
        capacity=capacity,
    )
    return instance_from_topology(topo, demand=demand)


def nested_reversal_instance(
    count: int,
    depth: int,
    pad: int,
    seed: Optional[int] = None,
    capacity: float = 1.0,
    max_delay: int = 3,
) -> UpdateInstance:
    """Amiri et al.'s nested path reversals ("Being Greedy is Hard"), between
    two chains.

    Old path ``s, p1..p_pad, v1..v_count, q1..q_pad, d``.  The new path
    visits the ``v`` block reversed, except that its middle third is
    visited in old order with *its* middle third reversed again, ``depth``
    levels deep: every level turns the direction round.  Delays are drawn
    from ``1..max_delay``; every link has ``capacity``.
    """
    rng = random.Random(seed)

    def nest(block: List[str], level: int) -> List[str]:
        if level == 0 or len(block) < 6:
            return block[::-1]
        third = len(block) // 3
        head, middle, tail = block[:third], block[third:-third], block[-third:]
        return tail[::-1] + nest(middle, level - 1)[::-1] + head[::-1]

    before = [f"p{i}" for i in range(pad)]
    block = [f"v{i}" for i in range(count)]
    after = [f"q{i}" for i in range(pad)]
    old_path = ["s", *before, *block, *after, "d"]
    new_path = ["s", *before, *nest(block, depth), *after, "d"]
    network = Network()
    for path in (old_path, new_path):
        links = missing_links(network, path)
        delays = [rng.randint(1, max_delay) for _ in links]
        network.add_links(links, capacity=capacity, delay=delays)
    return instance_from_paths(network, old_path, new_path)


def motivating_example() -> UpdateInstance:
    """The paper's Fig. 1 six-switch example.

    Old path ``v1 -> v2 -> v3 -> v4 -> v5 -> v6``; final routing
    ``v1 -> v4 -> v3 -> v2 -> v6`` plus the drain rule ``v5 -> v2``.  Every
    link has capacity one and delay one; the flow demand is one unit.  The
    timed schedule ``v2@t0, v3@t1, {v1, v4}@t2, v5@t3`` is congestion- and
    loop-free (Fig. 1(e)-(h)), while updating everything at once creates
    three transient loops and updating ``{v1, v2}`` first congests the
    ``v4 -> v3`` link (Fig. 2).
    """
    chain = ["v1", "v2", "v3", "v4", "v5", "v6"]
    detour = [("v1", "v4"), ("v4", "v3"), ("v3", "v2"), ("v2", "v6"), ("v5", "v2")]
    net = network_from_links([*zip(chain, chain[1:]), *detour])
    return instance_from_paths(
        net,
        old_path=chain,
        new_path=["v1", "v4", "v3", "v2", "v6"],
        demand=1.0,
        extra_new_rules={"v5": "v2"},
    )
