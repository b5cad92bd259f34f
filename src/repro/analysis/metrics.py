"""Schedule-level consistency metrics.

Fig. 7 counts *congestion cases* (update instances with at least one
capacity violation during the transition), Fig. 8 counts *congested links
of the time-extended network* (distinct ``(link, time step)`` pairs over
capacity), and Fig. 11 measures *update time* in time units (the schedule
makespan).  All three derive from one replay of the schedule through the
interval tracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.core.tracker import replay_schedule


@dataclass(frozen=True)
class ScheduleMetrics:
    """Consistency outcome of one executed schedule.

    Attributes:
        makespan: Update time in time units (``|T|``).
        congestion_spans: Capacity-violation spans.
        congested_timed_links: Distinct over-capacity ``(link, time)`` pairs.
        loop_events: Forwarding-loop occurrences.
        blackhole_events: Dropped-traffic occurrences.
    """

    makespan: int
    congestion_spans: int
    congested_timed_links: int
    loop_events: int
    blackhole_events: int

    @property
    def congestion_free(self) -> bool:
        return self.congestion_spans == 0

    @property
    def loop_free(self) -> bool:
        return self.loop_events == 0

    @property
    def consistent(self) -> bool:
        return (
            self.congestion_free and self.loop_free and self.blackhole_events == 0
        )


def evaluate_schedule(instance: UpdateInstance, schedule: UpdateSchedule) -> ScheduleMetrics:
    """Replay ``schedule`` and measure every consistency metric."""
    tracker = replay_schedule(instance, schedule)
    spans = tracker.congestion_spans()
    return ScheduleMetrics(
        makespan=schedule.makespan,
        congestion_spans=len(spans),
        congested_timed_links=sum(span.timed_link_count for span in spans),
        loop_events=len(tracker.loops),
        blackhole_events=len(tracker.blackholes),
    )


def congested_timed_links(instance: UpdateInstance, schedule: UpdateSchedule) -> int:
    """Fig. 8's unit for one instance/schedule pair."""
    return evaluate_schedule(instance, schedule).congested_timed_links
