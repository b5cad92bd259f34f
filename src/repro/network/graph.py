"""Directed network graph with per-link capacity and transmission delay.

The model follows Section II-B of the paper: a network is a directed graph
``G = (V, E)`` where every link ``(u, v)`` has a capacity ``C_{u,v}`` and an
integer transmission delay ``sigma_{u,v}`` (one unit of flow leaving ``u`` at
time ``t`` arrives at ``v`` at time ``t + sigma_{u,v}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

Node = str

DEFAULT_CAPACITY = 1.0
DEFAULT_DELAY = 1


def _check_link(src: Node, dst: Node, capacity: float, delay: int) -> None:
    if src == dst:
        raise ValueError(f"self-loop link {src!r} -> {dst!r}")
    if capacity <= 0:
        raise ValueError(f"link capacity must be positive, got {capacity}")
    if not isinstance(delay, int) or delay < 1:
        raise ValueError(f"link delay must be a positive integer, got {delay}")


@dataclass(frozen=True)
class Link:
    """A directed link ``src -> dst`` with capacity and integer delay.

    Attributes:
        src: Tail switch of the link.
        dst: Head switch of the link.
        capacity: Maximum amount of flow the link can carry at any single
            moment in time (``C_{u,v}`` in the paper).
        delay: Transmission delay in discrete time steps
            (``sigma_{u,v}`` in the paper); must be a positive integer.
    """

    src: Node
    dst: Node
    capacity: float = DEFAULT_CAPACITY
    delay: int = DEFAULT_DELAY

    def __post_init__(self) -> None:
        _check_link(self.src, self.dst, self.capacity, self.delay)

    @property
    def endpoints(self) -> Tuple[Node, Node]:
        """The ``(src, dst)`` pair identifying this link."""
        return (self.src, self.dst)


class Network:
    """A directed graph of switches and links.

    Switches are identified by strings.  At most one link may exist per
    ordered switch pair; parallel links are rejected, while anti-parallel
    links (``u -> v`` and ``v -> u``) are allowed and independent.

    A link's attributes live in two flat ``(src, dst) -> delay / capacity``
    dicts, the ones :meth:`delay_map` / :meth:`capacity_map` hand to the
    hot paths, and that is all a build writes per link: a :class:`Link` is
    a view built (once) only when asked for, and the adjacency lists behind
    :meth:`successors` and friends are derived from the links on first use.

    Example:
        >>> net = Network()
        >>> net.add_link("v1", "v2", capacity=1.0, delay=1)
        >>> net.link("v1", "v2")
        Link(src='v1', dst='v2', capacity=1.0, delay=1)
        >>> net.has_link("v1", "v2")
        True
    """

    def __init__(self) -> None:
        self._nodes: Dict[Node, None] = {}
        self._delay: Dict[Tuple[Node, Node], int] = {}
        self._capacity: Dict[Tuple[Node, Node], float] = {}
        self._views: Dict[Tuple[Node, Node], Link] = {}
        # (out, in) adjacency, derived from the links; None after a change.
        self._adjacency: Optional[Tuple[Dict[Node, List[Node]], Dict[Node, List[Node]]]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_switch(self, node: Node) -> None:
        """Register a switch; idempotent."""
        self._nodes.setdefault(node)

    def add_link(
        self,
        src: Node,
        dst: Node,
        capacity: float = DEFAULT_CAPACITY,
        delay: int = DEFAULT_DELAY,
    ) -> None:
        """Add a directed link; endpoints are registered automatically.

        Raises:
            ValueError: if the link already exists or its attributes are
                invalid (see :class:`Link`).
        """
        key = (src, dst)
        if key in self._delay:
            raise ValueError(f"duplicate link {src!r} -> {dst!r}")
        _check_link(src, dst, capacity, delay)
        self._nodes.setdefault(src)
        self._nodes.setdefault(dst)
        self._delay[key] = delay
        self._capacity[key] = capacity
        self._adjacency = None

    def ensure_link(
        self,
        src: Node,
        dst: Node,
        capacity: float = DEFAULT_CAPACITY,
        delay: int = DEFAULT_DELAY,
    ) -> Link:
        """Return the existing link ``src -> dst`` or create it."""
        if (src, dst) not in self._delay:
            self.add_link(src, dst, capacity=capacity, delay=delay)
        return self.link(src, dst)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def switches(self) -> List[Node]:
        """All switches, in insertion order."""
        return list(self._nodes)

    @property
    def links(self) -> List[Link]:
        """All links, in insertion order."""
        return [self._view(key) for key in self._delay]

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def has_link(self, src: Node, dst: Node) -> bool:
        """Whether the directed link ``src -> dst`` exists."""
        return (src, dst) in self._delay

    def link(self, src: Node, dst: Node) -> Link:
        """The link ``src -> dst``.

        Raises:
            KeyError: if the link does not exist.
        """
        if (src, dst) not in self._delay:
            raise KeyError(f"no link {src!r} -> {dst!r}")
        return self._view((src, dst))

    def get_link(self, src: Node, dst: Node) -> Optional[Link]:
        """The link ``src -> dst`` or ``None``."""
        return self._view((src, dst)) if (src, dst) in self._delay else None

    def capacity(self, src: Node, dst: Node) -> float:
        """Capacity ``C_{src,dst}``; raises ``KeyError`` if absent."""
        try:
            return self._capacity[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src!r} -> {dst!r}") from None

    def delay(self, src: Node, dst: Node) -> int:
        """Delay ``sigma_{src,dst}``; raises ``KeyError`` if absent."""
        try:
            return self._delay[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src!r} -> {dst!r}") from None

    def delay_map(self) -> Dict[Tuple[Node, Node], int]:
        """Flat ``(src, dst) -> delay`` dict for hot-path lookups.

        The network's own store, in link insertion order (the order of
        :attr:`links` and of :meth:`capacity_map`); callers must not mutate
        it.
        """
        return self._delay

    def capacity_map(self) -> Dict[Tuple[Node, Node], float]:
        """Flat ``(src, dst) -> capacity`` dict (see :meth:`delay_map`)."""
        return self._capacity

    def successors(self, node: Node) -> List[Node]:
        """Heads of out-links of ``node``, in link insertion order."""
        return list(self._adjacent()[0].get(node, ()))

    def predecessors(self, node: Node) -> List[Node]:
        """Tails of in-links of ``node``, in link insertion order."""
        return list(self._adjacent()[1].get(node, ()))

    def out_links(self, node: Node) -> Iterator[Link]:
        """Iterate over the out-links of ``node``."""
        for dst in self.successors(node):
            yield self._view((node, dst))

    def in_links(self, node: Node) -> Iterator[Link]:
        """Iterate over the in-links of ``node``."""
        for src in self.predecessors(node):
            yield self._view((src, node))

    def _adjacent(self) -> Tuple[Dict[Node, List[Node]], Dict[Node, List[Node]]]:
        if self._adjacency is None:
            heads: Dict[Node, List[Node]] = {}
            tails: Dict[Node, List[Node]] = {}
            for src, dst in self._delay:
                heads.setdefault(src, []).append(dst)
                tails.setdefault(dst, []).append(src)
            self._adjacency = (heads, tails)
        return self._adjacency

    def _view(self, key: Tuple[Node, Node]) -> Link:
        """The :class:`Link` of an existing ``key``, built on first request."""
        view = self._views.get(key)
        if view is None:
            view = Link(*key, capacity=self._capacity[key], delay=self._delay[key])
            self._views[key] = view
        return view

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "Network":
        """A structural copy sharing no mutable state."""
        clone = Network()
        clone._nodes = dict(self._nodes)
        clone._delay = dict(self._delay)
        clone._capacity = dict(self._capacity)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Network(switches={len(self._nodes)}, links={len(self._delay)})"


def network_from_links(links: Iterable[Tuple[Node, Node]], capacity: float = DEFAULT_CAPACITY, delay: int = DEFAULT_DELAY) -> Network:
    """Build a :class:`Network` from ``(src, dst)`` pairs with uniform attributes."""
    net = Network()
    for src, dst in links:
        net.add_link(src, dst, capacity=capacity, delay=delay)
    return net
