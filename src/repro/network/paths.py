"""Path utilities over :class:`repro.network.graph.Network`.

A *path* is an ordered node sequence; the paper writes ``phi(p)`` for the sum
of link delays along a path, which :func:`path_delay` computes.
"""

from __future__ import annotations

from itertools import accumulate
from operator import eq
from typing import Iterator, List, Sequence, Tuple

from repro.network.graph import Network, Node

Path = Tuple[Node, ...]


def as_path(nodes: Sequence[Node]) -> Path:
    """Normalise a node sequence into a :data:`Path` tuple.

    Raises:
        ValueError: for paths shorter than two nodes or with immediate
            repetitions.
    """
    path = tuple(nodes)
    if len(path) < 2:
        raise ValueError(f"a path needs at least two nodes, got {path!r}")
    if any(map(eq, path, path[1:])):
        repeated = next(a for a, b in zip(path, path[1:]) if a == b)
        raise ValueError(f"path repeats node {repeated!r} consecutively")
    return path


def path_links(path: Sequence[Node]) -> Iterator[Tuple[Node, Node]]:
    """Iterate over the ``(src, dst)`` link pairs of ``path``."""
    return zip(path, path[1:])


def is_simple(path: Sequence[Node]) -> bool:
    """Whether ``path`` visits each node at most once."""
    return len(set(path)) == len(path)


def validate_path(network: Network, path: Sequence[Node]) -> None:
    """Check that ``path`` is simple and every hop exists in ``network``.

    Raises:
        ValueError: if the path is not simple or uses a missing link.
    """
    if not is_simple(path):
        raise ValueError(f"path is not simple: {list(path)!r}")
    for src, dst in path_links(path):
        if not network.has_link(src, dst):
            raise ValueError(f"path uses missing link {src!r} -> {dst!r}")


def path_delay(network: Network, path: Sequence[Node]) -> int:
    """``phi(p)``: the total transmission delay along ``path``."""
    return sum(map(network.delay_map().__getitem__, path_links(path)))


def arrival_offsets(network: Network, path: Sequence[Node]) -> List[int]:
    """Cumulative delays from the head of ``path`` to each node on it.

    ``offsets[i]`` is the number of time steps after departing ``path[0]``
    at which a unit of flow departs ``path[i]`` (zero processing delay at
    switches, per the paper's dynamic-flow model).
    """
    return list(accumulate(map(network.delay_map().__getitem__, path_links(path)), initial=0))


def follow_config(config, source: Node, destination: Node, max_hops: int) -> Tuple[Path, bool]:
    """Trace the route from ``source`` under a next-hop ``config`` mapping.

    Args:
        config: Mapping ``node -> next hop`` (nodes missing from the mapping
            black-hole traffic).
        source: Start node.
        destination: Node at which tracing stops successfully.
        max_hops: Abort after this many hops (loop guard).

    Returns:
        ``(nodes, complete)`` where ``complete`` is ``True`` iff the route
        reaches ``destination``.  An incomplete route ends either at a
        black-holing node or at the ``max_hops`` guard.
    """
    nodes: List[Node] = [source]
    current = source
    hops = 0
    while current != destination and hops < max_hops:
        nxt = config.get(current)
        if nxt is None:
            return tuple(nodes), False
        nodes.append(nxt)
        current = nxt
        hops += 1
    return tuple(nodes), current == destination
