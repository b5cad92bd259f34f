"""Timed update schedules: the output of every scheduler.

A schedule assigns each to-be-updated switch an integer time point.  The
paper's objective (program (3)) minimises ``|T|``, the number of time steps
spanned by the update; :attr:`UpdateSchedule.makespan` computes exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.network.graph import Node


@dataclass(frozen=True)
class UpdateSchedule:
    """An assignment ``switch -> update time point``.

    Attributes:
        times: The update time of each switch (integer time steps).
        start_time: ``t0``, the first moment the controller may touch the
            network; defaults to the earliest scheduled time (or 0 when the
            schedule is empty).
        feasible: Whether the producing algorithm claims the schedule is
            congestion- and loop-free.  Schedulers set this to ``False`` for
            best-effort schedules of infeasible instances.
    """

    times: Mapping[Node, int]
    start_time: Optional[int] = None
    feasible: bool = True

    def __post_init__(self) -> None:
        for node, when in self.times.items():
            if when != int(when):
                raise ValueError(f"update time for {node!r} must be an integer")
        if self.start_time is not None and self.times:
            earliest = min(self.times.values())
            if earliest < self.start_time:
                raise ValueError(
                    f"schedule updates at {earliest} before start_time {self.start_time}"
                )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self.times

    def __len__(self) -> int:
        return len(self.times)

    def time_of(self, node: Node) -> int:
        """Update time of ``node``; raises ``KeyError`` if unscheduled."""
        return self.times[node]

    @property
    def t0(self) -> int:
        """The schedule's reference start time."""
        if self.start_time is not None:
            return self.start_time
        if not self.times:
            return 0
        return min(self.times.values())

    @property
    def last_time(self) -> int:
        """The latest update time point (equals ``t0`` for empty schedules)."""
        if not self.times:
            return self.t0
        return max(self.times.values())

    @property
    def makespan(self) -> int:
        """``|T|``: time steps from ``t0`` through the last update, inclusive.

        This is the paper's objective -- the total update time.  An empty
        schedule has makespan zero.
        """
        if not self.times:
            return 0
        return self.last_time - self.t0 + 1

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def rounds(self) -> List[Tuple[int, Tuple[Node, ...]]]:
        """Updates grouped by time point, chronologically.

        Returns:
            ``[(time, (switches...)), ...]`` sorted by time; switches within
            a round keep insertion order.
        """
        by_time: Dict[int, List[Node]] = {}
        for node, when in self.times.items():
            by_time.setdefault(when, []).append(node)
        return [(when, tuple(by_time[when])) for when in sorted(by_time)]

    def items(self) -> Iterator[Tuple[Node, int]]:
        return iter(self.times.items())

    def as_dict(self) -> Dict[Node, int]:
        """A plain mutable copy of the time mapping."""
        return dict(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rounds = ", ".join(
            f"t{when}: {'+'.join(nodes)}" for when, nodes in self.rounds()
        )
        flag = "" if self.feasible else ", best-effort"
        return f"UpdateSchedule({rounds}{flag})"


def schedule_from_rounds(rounds, start_time: int = 0, feasible: bool = True) -> UpdateSchedule:
    """Build a schedule from consecutive rounds of switch sets.

    Args:
        rounds: Iterable of switch collections; round ``i`` updates at
            ``start_time + i``.
        start_time: Time of the first round.
        feasible: Claimed feasibility flag.
    """
    times: Dict[Node, int] = {}
    for i, round_nodes in enumerate(rounds):
        for node in round_nodes:
            if node in times:
                raise ValueError(f"switch {node!r} appears in two rounds")
            times[node] = start_time + i
    return UpdateSchedule(times=times, start_time=start_time, feasible=feasible)
