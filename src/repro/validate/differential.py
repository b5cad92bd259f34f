"""Differential replay: cross-check the fluid simulator against the verifier.

The analytic verifier and the fluid discrete-event data plane implement the
same physics twice -- per-emission trajectories on one side, delayed rate
propagation on the other.  :func:`differential_replay` executes an update
plan through :func:`~repro.controller.resilient.execute_plan` -- the same
acknowledged executors the service, the faults ablation and Fig. 6 run --
reads the update times that actually took effect back out of the
:class:`~repro.controller.executor.ExecutionTrace`
(:func:`~repro.controller.resilient.realized_schedule`), verifies that
*realised* schedule independently, and then compares the fluid links'
measured utilisation timelines and drop volumes against the verdict's
predicted loads, step by step, within a float tolerance.

All control latencies are pinned to deterministic integer time steps, so
predicted and measured rates must agree *exactly* (up to float error)
wherever the analytic model is exact.  The single deliberate divergence:
the analytic model kills a unit at its first switch revisit (Definition 2),
while the fluid plane keeps the looped traffic circulating until a cycle
switch's rule changes.  Fluid load is therefore allowed to *exceed* the
prediction when (and only when) the verdict reports loops -- and that excess
is required, as physical evidence the predicted loops actually formed.
Measured load *below* the prediction is always a disagreement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.controller.channel import ConstantDelayModel, StepDelayModel
from repro.controller.resilient import execute_plan, realized_schedule
from repro.controller.testbed import build_testbed
from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.core.verdict import Verdict
from repro.network.graph import Node
from repro.updates.registry import get_planner

LinkKey = Tuple[Node, Node]


#: Absolute rate tolerance (Mbps) when a measured load is compared with the
#: verdict's prediction.
TOLERANCE = 1e-6

@dataclass(frozen=True)
class TimelineMismatch:
    """Predicted and measured load disagree on ``link`` at step ``step``."""

    link: LinkKey
    step: int
    predicted: float
    measured: float


@dataclass
class DiffReport:
    """Outcome of one verifier <-> simulator differential replay.

    Attributes:
        protocol: The replayed plan's protocol name.
        executor: Execution strategy used (``timed``/``rounds``/``two-phase``).
        realized: Schedule read back from the execution trace (actual
            rule-flip steps, not the nominal plan).
        verdict: Independent verdict of the realised schedule.
        mismatches: Hard disagreements -- measured load below prediction, or
            any deviation on a loop-free verdict.
        excesses: Measured load above prediction; expected (and required)
            fluid evidence of predicted forwarding loops.
        timing_errors: Rule flips that missed the integer time grid or were
            never observed to apply.
        predicted_drops: Whether the verdict predicts dropped traffic.
        measured_drop_volume: Megabits the fluid plane black-holed.
    """

    protocol: str
    executor: str
    realized: UpdateSchedule
    verdict: Verdict
    mismatches: List[TimelineMismatch] = field(default_factory=list)
    excesses: List[TimelineMismatch] = field(default_factory=list)
    timing_errors: List[str] = field(default_factory=list)
    predicted_drops: bool = False
    measured_drop_volume: float = 0.0
    drop_tolerance: float = 1e-6

    @property
    def measured_drops(self) -> bool:
        return self.measured_drop_volume > self.drop_tolerance

    @property
    def drops_agree(self) -> bool:
        return self.predicted_drops == self.measured_drops

    @property
    def loops_confirmed(self) -> Optional[bool]:
        """Fluid evidence for predicted loops (``None`` when none predicted)."""
        if self.verdict.loop_free:
            return None
        return bool(self.excesses)

    @property
    def ok(self) -> bool:
        if self.timing_errors or self.mismatches or not self.drops_agree:
            return False
        if not self.verdict.loop_free and not self.excesses:
            return False  # predicted loops left no trace in the fluid plane
        return True

    def describe(self) -> str:
        """A readable account of every simulator <-> verifier disagreement."""
        if self.ok:
            return (
                f"differential replay [{self.protocol}/{self.executor}]: "
                "simulator agrees with the verifier"
            )
        lines = [
            f"differential replay [{self.protocol}/{self.executor}]: DISAGREEMENT"
        ]
        for error in self.timing_errors:
            lines.append(f"  timing: {error}")
        for miss in self.mismatches[:8]:
            lines.append(
                f"  {miss.link[0]}->{miss.link[1]} step {miss.step}: "
                f"predicted {miss.predicted:g}, measured {miss.measured:g}"
            )
        if len(self.mismatches) > 8:
            lines.append(f"  ... {len(self.mismatches) - 8} more mismatch(es)")
        if not self.drops_agree:
            lines.append(
                f"  drops: verifier predicts {'some' if self.predicted_drops else 'none'}, "
                f"plane dropped {self.measured_drop_volume:g} Mb"
            )
        if self.loops_confirmed is False:
            lines.append(
                "  loops: verdict predicts forwarding loops but the fluid "
                "plane shows no circulating excess"
            )
        return "\n".join(lines)


def differential_replay(
    plan,
    *,
    instance: Optional[UpdateInstance] = None,
    time_unit: float = 1.0,
    seed: int = 0,
    install_skew: int = 0,
) -> DiffReport:
    """Execute ``plan`` on the fluid DES and cross-check every measurement.

    Args:
        plan: An :class:`repro.updates.registry.UpdatePlan`; what is
            executed is ``plan.dispatched`` (the nominal rounds of a
            round-executed scheme), the way the plan's registered planner
            says (``planner.executor``).
        instance: The update instance; defaults to ``plan.instance``.
        time_unit: True seconds per schedule step (also the plane's delay
            scale, so analytic steps and fluid seconds stay aligned).
        seed: Seeds the install-latency stream.
        install_skew: Maximum per-switch installation latency in whole time
            steps.  It shifts a round-executed plan's realised schedule;
            timed FlowMods are pre-programmed and a two-phase flip waits for
            its (traffic-invisible) installs, so neither moves while the
            skew does not exceed the flip delay.

    Returns:
        A :class:`DiffReport`; ``report.ok`` means the simulator, executor
        and verifier tell the same story about this plan.

    Raises:
        UnknownSchemeError: ``plan.scheme`` names no registered planner.
        ValueError: Neither the plan nor ``instance`` supplies the instance.
    """
    if instance is not None:
        plan = replace(plan, instance=instance)
    instance = plan.instance
    if instance is None:
        raise ValueError("differential_replay needs the plan's update instance")
    planner = get_planner(plan.scheme)
    schedule: UpdateSchedule = plan.dispatched
    t0 = schedule.t0

    sim, plane, controller = build_testbed(
        instance,
        delay_scale=time_unit,
        network_delay=ConstantDelayModel(0.0),
        install_delay=StepDelayModel(time_unit=time_unit, max_steps=install_skew),
        rng=random.Random(seed),
    )

    warmup_steps = instance.old_path_delay + 2
    start_true = warmup_steps * time_unit

    def to_true(step: float) -> float:
        return start_true + (step - t0) * time_unit

    report = DiffReport(
        protocol=plan.scheme,
        executor=planner.executor,
        realized=schedule,
        verdict=Verdict(schedule_complete=True),
        drop_tolerance=TOLERANCE * time_unit * max(1.0, instance.demand),
    )

    # An acknowledgement takes at most the install skew (the control network
    # is instantaneous), so this retry timer can never fire.
    trace = execute_plan(
        controller, plane, plan,
        start_at=start_true, time_unit=time_unit,
        retry_timeout=(install_skew + 1) * time_unit,
    )

    # Stage 1: run until every rule flip has landed, then read the realised
    # schedule back out of the trace -- the boundary this module audits.
    rounds = len(schedule.rounds())
    flips_done = t0 + schedule.makespan + rounds * (install_skew + 1) + 2
    sim.run(until=to_true(flips_done))

    realized, off_grid = realized_schedule(
        plan, trace, start_at=start_true, time_unit=time_unit
    )
    if realized is None or off_grid:
        problem = (
            "was never observed to apply" if realized is None
            else "landed off the integer time grid"
        )
        applied = ", ".join(f"{n}@{when:g}s" for n, when in trace.applied.items())
        report.timing_errors.append(f"a rule flip {problem}; applied: {applied}")
        return report  # flips unaccounted for; load comparison would lie
    verdict = planner.verify(instance, realized)
    report.realized = realized
    report.verdict = verdict

    # Stage 2: run the plane through the verdict's full check window, then
    # compare the measured utilisation at every unit-window midpoint.
    sim.run(until=to_true(verdict.check_end + 1) + 0.25 * time_unit)
    _compare_timelines(report, plane, verdict, to_true, time_unit)
    report.predicted_drops = bool(verdict.blackholes)
    report.measured_drop_volume = plane.total_dropped_volume()
    return report


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _compare_timelines(
    report: DiffReport,
    plane,
    verdict: Verdict,
    to_true,
    time_unit: float,
) -> None:
    """Sample each fluid link at every unit-window midpoint and compare."""
    allow_excess = not verdict.loop_free
    for link_key, link in sorted(plane.links.items()):
        timeline = link.utilization_timeline()
        predicted_series = verdict.loads.get(link_key, {})
        cursor = 0
        measured = 0.0
        for step in range(verdict.check_start, verdict.check_end + 1):
            midpoint = to_true(step) + 0.5 * time_unit
            while cursor < len(timeline) and timeline[cursor].time <= midpoint:
                measured = timeline[cursor].rate
                cursor += 1
            predicted = predicted_series.get(step, 0.0)
            if abs(measured - predicted) <= TOLERANCE:
                continue
            entry = TimelineMismatch(
                link=link_key, step=step, predicted=predicted, measured=measured
            )
            if measured > predicted and allow_excess:
                report.excesses.append(entry)
            else:
                report.mismatches.append(entry)
