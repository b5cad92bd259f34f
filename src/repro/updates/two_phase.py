"""Two-phase versioned updates (Reitblatt et al., SIGCOMM'12).

Phase one installs a complete second rule set matched on a new version tag
(the paper's Mininet prototype uses VLAN IDs); traffic still carries the old
tag, so nothing changes in the data plane.  Phase two flips the ingress
switch to stamp the new tag: every packet then traverses either the all-old
or the all-new configuration -- per-packet consistency -- so forwarding
loops are impossible by construction.  Afterwards the old rules are removed.

Costs and limits reproduced here:

* **Rule overhead** (Fig. 9): one versioned copy of every rule on the union
  of both paths, one ingress stamping rule, and one delete per old rule;
  flow tables peak at twice their steady size ("doubles the number of
  forwarding rules during the update").
* **Transient congestion**: per-packet consistency does not prevent the new
  flow from overtaking in-flight old traffic on a shared link; the exact
  collision condition is that the new path reaches the shared link with a
  smaller delay offset than the old path
  (:func:`two_phase_congestion_spans`).
"""

from __future__ import annotations

from typing import List

from repro.core.instance import UpdateInstance
from repro.core.intervals import CongestionSpan
from repro.core.schedule import UpdateSchedule
from repro.network.paths import arrival_offsets
from repro.updates.registry import (
    TWO_PHASE,
    Planner,
    SchemeMetrics,
    UpdatePlan,
    register_planner,
)

_EPS = 1e-9


def two_phase_congestion_spans(
    instance: UpdateInstance, flip_time: int
) -> List[CongestionSpan]:
    """Exact transient congestion of a two-phase update.

    Packets stamped before ``flip_time`` travel the full old path; packets
    stamped at or after it travel the full new path.  On every link shared
    by both paths (same direction) the old stream departs until
    ``flip_time - 1 + off_old`` and the new stream from ``flip_time +
    off_new``; they overlap iff ``off_new < off_old``, in which case the
    link carries twice the demand for ``off_old - off_new`` time steps.
    """
    network = instance.network
    demand = instance.demand
    old_path = instance.old_path
    new_path = instance.new_path
    old_offsets = dict(zip(zip(old_path, old_path[1:]), arrival_offsets(network, old_path)))
    new_offsets = dict(zip(zip(new_path, new_path[1:]), arrival_offsets(network, new_path)))

    spans: List[CongestionSpan] = []
    for link, off_old in old_offsets.items():
        off_new = new_offsets.get(link)
        if off_new is None or off_new >= off_old:
            continue
        capacity = network.capacity(*link)
        if 2 * demand <= capacity + _EPS:
            continue
        start = flip_time + off_new
        end = flip_time - 1 + off_old
        spans.append(
            CongestionSpan(
                link=link, start=start, end=end, load=2 * demand, capacity=capacity
            )
        )
    spans.sort(key=lambda span: (span.start, span.link))
    return spans


class TwoPhasePlanner(Planner):
    """Registry entry for two-phase versioned updates.

    Two-phase plans carry versioned-install semantics, so the capability
    flags route them away from the tracker: measurement uses the exact
    overtaking-span formula and verification uses ``verify_two_phase``
    on the ingress flip time.
    """

    name = "tp"
    title = "TP: two-phase versioned updates with an ingress flip"
    sweep_order = 3
    two_phase = True
    executor = TWO_PHASE

    def _plan(
        self,
        instance: UpdateInstance,
        *,
        rng=None,
        background=None,
        t0: int = 0,
        flip_delay: int = 1,
        **_,
    ) -> UpdatePlan:
        if flip_delay < 1:
            raise ValueError("the ingress flip happens after phase one")
        flip_time = t0 + flip_delay
        # Nominal schedule: phase-1 rules at t0 (traffic-invisible), the
        # ingress flip at flip_time.  For data-plane semantics only the flip
        # matters; `two_phase_congestion_spans` evaluates it exactly.
        times = {node: t0 for node in instance.switches_to_update}
        times[instance.source] = flip_time
        spans = two_phase_congestion_spans(instance, flip_time)
        return UpdatePlan(
            scheme=self.name,
            schedule=UpdateSchedule(times=times, start_time=t0),
            feasible=not spans,
            notes="" if not spans else f"{len(spans)} overtaking congestion span(s)",
            instance=instance,
            recorded_rounds=[
                (t0, tuple(n for n in instance.switches_to_update if n != instance.source)),
                (flip_time, (instance.source,)),
            ],
        )

    def measure(self, instance: UpdateInstance, result: UpdatePlan) -> SchemeMetrics:
        flip_time = result.schedule.time_of(instance.source)
        spans = two_phase_congestion_spans(instance, flip_time)
        return SchemeMetrics(
            makespan=result.schedule.makespan,
            congested_timed_links=sum(span.timed_link_count for span in spans),
            blackhole_events=0,
            congestion_free=not spans,
            loop_free=True,  # per-packet consistency: loops impossible
        )

    def verify(self, instance: UpdateInstance, schedule: UpdateSchedule, *, background=None):
        from repro.validate.verifier import verify_two_phase

        return verify_two_phase(
            instance,
            schedule.time_of(instance.source),
            t0=schedule.t0,
            background=background,
        )


register_planner(TwoPhasePlanner())
