"""Verdict types: the output of the independent plan-conformance verifier.

A :class:`Verdict` is the complete consistency judgement of one update
schedule -- every forwarding loop, every dropped emission and every
over-capacity ``(link, interval, load)`` -- produced by
:func:`repro.validate.verify_schedule`, a re-derivation of the paper's
Definitions 2 and 3 that shares no code with the
:class:`repro.core.intervals.IntervalTracker` the schedulers reason over.
Keeping the types in ``core`` lets experiment and replay code name a verdict
without importing the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.network.graph import Node

LinkKey = Tuple[Node, Node]


@dataclass(frozen=True)
class LoopViolation:
    """The emission at ``emission`` revisits switch ``node`` (Definition 2)."""

    emission: int
    node: Node


@dataclass(frozen=True)
class BlackholeViolation:
    """The emission at ``emission`` is dropped at ``node`` (no applicable rule)."""

    emission: int
    node: Node


@dataclass(frozen=True)
class CapacityViolation:
    """``link`` exceeds capacity for every departure in ``[start, end]``.

    ``peak_load`` is the largest load observed anywhere in the interval
    (Definition 3 violations are reported as maximal intervals).
    """

    link: LinkKey
    start: int
    end: int
    peak_load: float
    capacity: float

    @property
    def timed_link_count(self) -> int:
        """Congested links of the time-extended network this interval covers."""
        return self.end - self.start + 1


@dataclass
class Verdict:
    """Independent consistency judgement of one schedule.

    Attributes:
        schedule_complete: Whether every switch needing an update got a time.
        loops: All Definition 2 violations (one per looped emission).
        blackholes: All dropped emissions.
        congestion: All Definition 3 violations as maximal intervals.
        loads: Per-link, per-departure-step load of the judged flow alone
            (background load counts in ``congestion``, not here), complete
            over ``[check_start, check_end]`` -- what
            :func:`repro.validate.differential_replay` cross-checks the
            fluid simulator's utilisation timelines against.
        check_start: First fully-derived (and checked) time step.
        check_end: Last checked time step.
    """

    schedule_complete: bool
    loops: List[LoopViolation] = field(default_factory=list)
    blackholes: List[BlackholeViolation] = field(default_factory=list)
    congestion: List[CapacityViolation] = field(default_factory=list)
    loads: Dict[LinkKey, Dict[int, float]] = field(default_factory=dict)
    check_start: int = 0
    check_end: int = 0

    @property
    def loop_free(self) -> bool:
        return not self.loops

    @property
    def drop_free(self) -> bool:
        return not self.blackholes

    @property
    def congestion_free(self) -> bool:
        return not self.congestion

    @property
    def ok(self) -> bool:
        """The paper's transient-consistency criterion plus completeness."""
        return (
            self.schedule_complete
            and self.loop_free
            and self.drop_free
            and self.congestion_free
        )

    @property
    def congested_timed_links(self) -> int:
        """Distinct over-capacity ``(link, time step)`` pairs (Fig. 8's unit)."""
        return sum(violation.timed_link_count for violation in self.congestion)

    @property
    def loop_nodes(self) -> Tuple[Node, ...]:
        """Revisited switches, sorted and deduplicated."""
        return tuple(sorted({v.node for v in self.loops}))

    def describe(self) -> str:
        """A readable multi-line account of every violation."""
        if self.ok:
            return "verdict: consistent (loop-, drop- and congestion-free)"
        lines: List[str] = ["verdict: INCONSISTENT"]
        if not self.schedule_complete:
            lines.append("  schedule incomplete: some switches never update")
        if self.loops:
            lines.append(f"  {len(self.loops)} looped emission(s):")
            for v in _head(self.loops):
                lines.append(f"    emission {v.emission} revisits {v.node}")
        if self.blackholes:
            lines.append(f"  {len(self.blackholes)} dropped emission(s):")
            for v in _head(self.blackholes):
                lines.append(f"    emission {v.emission} dropped at {v.node}")
        if self.congestion:
            lines.append(f"  {len(self.congestion)} over-capacity interval(s):")
            for v in _head(self.congestion):
                lines.append(
                    f"    {v.link[0]}->{v.link[1]} t[{v.start},{v.end}] "
                    f"load {v.peak_load:g} > cap {v.capacity:g}"
                )
        return "\n".join(lines)


def _head(items, limit: int = 8):
    """First ``limit`` items, with an ellipsis marker handled by callers."""
    return items[:limit]
