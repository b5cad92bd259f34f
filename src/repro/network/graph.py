"""Directed network graph with per-link capacity and transmission delay.

The model follows Section II-B of the paper: a network is a directed graph
``G = (V, E)`` where every link ``(u, v)`` has a capacity ``C_{u,v}`` and an
integer transmission delay ``sigma_{u,v}`` (one unit of flow leaving ``u`` at
time ``t`` arrives at ``v`` at time ``t + sigma_{u,v}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle, repeat, starmap
from operator import eq
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Node = str

DEFAULT_CAPACITY = 1.0
DEFAULT_DELAY = 1


def _check_link(src: Node, dst: Node, capacity: float, delay: int) -> None:
    if src == dst:
        raise ValueError(f"self-loop link {src!r} -> {dst!r}")
    if capacity <= 0:
        raise ValueError(f"link {src!r} -> {dst!r}: capacity must be positive, got {capacity}")
    if not isinstance(delay, int) or delay < 1:
        raise ValueError(
            f"link {src!r} -> {dst!r}: delay must be a positive integer, got {delay}"
        )


def _duplicate(key: Tuple[Node, Node]) -> str:
    return f"duplicate link {key[0]!r} -> {key[1]!r}"


def _by_link(keys: List[Tuple[Node, Node]], value) -> Tuple[dict, Sequence]:
    """``(link -> value, the values given)``: one per link from a list or
    tuple, else ``value`` for every link (duplicate links collapse)."""
    if isinstance(value, (list, tuple)):
        if len(value) != len(keys):
            raise ValueError(f"{len(value)} link attributes for {len(keys)} links")
        return dict(zip(keys, value)), value
    return dict.fromkeys(keys, value), (value,)


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


class Network:
    """A directed graph of switches and links.

    Switches are identified by strings.  At most one link may exist per
    ordered switch pair; parallel links are rejected, while anti-parallel
    links (``u -> v`` and ``v -> u``) are allowed and independent.

    A link's attributes live in two flat ``(src, dst) -> delay / capacity``
    dicts, the ones :meth:`delay_map` / :meth:`capacity_map` hand to the
    hot paths, and that is all a build writes per link: a :class:`Link` is
    a view built (once) only when asked for.

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
            raise ValueError(_duplicate(key))
        _check_link(src, dst, capacity, delay)
        self._nodes.setdefault(src)
        self._nodes.setdefault(dst)
        self._delay[key] = delay
        self._capacity[key] = capacity

    def add_links(
        self,
        links: Iterable[Tuple[Node, Node]],
        capacity: Union[float, Sequence[float]] = DEFAULT_CAPACITY,
        delay: Union[int, Sequence[int]] = DEFAULT_DELAY,
    ) -> None:
        """Add directed ``(src, dst)`` links; the bulk insertion path.

        ``capacity`` and ``delay`` are each one value for every link or a
        list / tuple with one entry per link.  The network afterwards is
        the one :meth:`add_link` on each link in order would leave (new
        endpoints registered in order of first appearance), built by a few
        whole-batch passes instead of a call per link.

        Raises:
            ValueError: the error :meth:`add_link` raises for the first
                link that fails its checks (a duplicate of an existing link
                or of an earlier one in ``links``, a self-loop, an invalid
                attribute); nothing is added then.
        """
        keys = list(links)
        delays, given_delays = _by_link(keys, delay)
        capacities, given_capacities = _by_link(keys, capacity)
        if not (
            len(delays) == len(keys)
            and (not self._delay or self._delay.keys().isdisjoint(delays))
            and not any(starmap(eq, keys))
            and min(given_capacities, default=1) > 0
            and all(map(isinstance, given_delays, repeat(int)))
            and min(given_delays, default=1) >= 1
        ):
            self._raise_first_fault(keys, given_capacities, given_delays)
        self._nodes.update(dict.fromkeys(chain.from_iterable(keys)))
        self._delay.update(delays)
        self._capacity.update(capacities)

    def _raise_first_fault(self, keys, capacities, delays) -> None:
        """Raise :meth:`add_link`'s error for the first failing link (the
        attributes as given: one per link, or one for all)."""
        seen = set(self._delay)
        for (src, dst), cap, hop_delay in zip(keys, cycle(capacities), cycle(delays)):
            if (src, dst) in seen:
                raise ValueError(_duplicate((src, dst)))
            _check_link(src, dst, cap, hop_delay)
            seen.add((src, dst))

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


def network_from_links(
    links: Iterable[Tuple[Node, Node]],
    capacity: Union[float, Sequence[float]] = DEFAULT_CAPACITY,
    delay: Union[int, Sequence[int]] = DEFAULT_DELAY,
) -> Network:
    """A :class:`Network` of ``(src, dst)`` links (see :meth:`Network.add_links`)."""
    net = Network()
    net.add_links(links, capacity=capacity, delay=delay)
    return net
