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
