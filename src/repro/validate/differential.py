"""Differential replay: cross-check the fluid simulator against the verifier.

The analytic verifier and the fluid discrete-event data plane implement the
same physics twice -- per-emission trajectories on one side, delayed rate
propagation on the other.  :func:`differential_replay` executes an update
plan through the *real* controller/executor stack
(:func:`~repro.controller.executor.perform_timed_update`,
:func:`~repro.controller.executor.perform_round_update`, or a two-phase
tagged flip), reads the update times that actually took effect back out of
the :class:`~repro.controller.executor.ExecutionTrace`, verifies that
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.controller.channel import (
    ConstantDelayModel,
    ControlChannel,
    StepDelayModel,
)
from repro.controller.controller import Controller
from repro.controller.executor import (
    ExecutionTrace,
    perform_round_update,
    perform_timed_update,
)
from repro.controller.messages import FlowModAdd, FlowModModify, next_xid
from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.core.verdict import Verdict
from repro.network.graph import Node
from repro.simulator.dataplane import build_dataplane, install_config
from repro.simulator.engine import Simulator
from repro.simulator.flowtable import FlowRule, Match
from repro.simulator.switch import HOST_PORT
from repro.validate.verifier import verify_schedule, verify_two_phase

from repro.updates.registry import ROUNDS, TIMED, TWO_PHASE

LinkKey = Tuple[Node, Node]

_TP_TAG = 2


#: Integer-grid installation latency (promoted to the channel module so the
#: faults ablation shares it); the old private name is kept as an alias.
_IntegerStepLatency = StepDelayModel


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
    executor: Optional[str] = None,
    install_skew: int = 0,
    tolerance: float = 1e-6,
) -> DiffReport:
    """Execute ``plan`` on the fluid DES and cross-check every measurement.

    Args:
        plan: An :class:`repro.updates.registry.UpdatePlan`; what is
            executed is ``plan.dispatched`` (the nominal rounds of a
            round-executed scheme).
        instance: The update instance; defaults to ``plan.instance``.
        time_unit: True seconds per schedule step (also the plane's delay
            scale, so analytic steps and fluid seconds stay aligned).
        seed: Seeds the install-latency stream for the rounds executor.
        executor: ``"timed"``, ``"rounds"`` or ``"two-phase"``; default
            chosen from the plan's registered planner.
        install_skew: Maximum per-switch installation latency in whole time
            steps (rounds executor only; the timed executor pre-programs
            switch-local execution times and two-phase flips one rule).
        tolerance: Absolute rate tolerance when comparing loads.

    Returns:
        A :class:`DiffReport`; ``report.ok`` means the simulator, executor
        and verifier tell the same story about this plan.
    """
    if instance is None:
        instance = plan.instance
    if instance is None:
        raise ValueError("differential_replay needs the plan's update instance")
    if executor is None:
        planner = plan.planner
        executor = planner.executor if planner is not None else TIMED
    schedule: UpdateSchedule = plan.dispatched
    t0 = schedule.t0

    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=time_unit)
    install_config(plane, instance)
    channel = ControlChannel(
        sim,
        network_delay=ConstantDelayModel(0.0),
        install_delay=_IntegerStepLatency(time_unit=time_unit, max_steps=install_skew),
        rng=random.Random(seed),
    )
    controller = Controller(sim, channel)
    for switch in plane.switches.values():
        controller.manage(switch)
    plane.inject_flow(
        instance.source, "h1", str(instance.destination), rate=instance.demand
    )

    warmup_steps = instance.old_path_delay + 2
    start_true = warmup_steps * time_unit

    def to_true(step: float) -> float:
        return start_true + (step - t0) * time_unit

    report = DiffReport(
        protocol=plan.scheme,
        executor=executor,
        realized=schedule,
        verdict=Verdict(schedule_complete=True),
        drop_tolerance=tolerance * time_unit * max(1.0, instance.demand),
    )

    trace_holder: List[ExecutionTrace] = []
    flip_xid: Optional[int] = None
    if executor == TIMED:
        trace_holder.append(
            perform_timed_update(
                controller, plane, instance, schedule,
                time_unit=time_unit, start_at=to_true(t0),
            )
        )
    elif executor == ROUNDS:
        sim.schedule_at(
            start_true,
            lambda: trace_holder.append(
                perform_round_update(
                    controller, plane, instance, schedule, time_unit=time_unit
                )
            ),
        )
    elif executor == TWO_PHASE:
        flip_step = schedule.time_of(instance.source)
        flip_xid = _prepare_two_phase(
            controller, plane, instance, to_true(flip_step)
        )
    else:
        raise ValueError(f"unknown executor {executor!r}")

    # Stage 1: run until every rule flip has landed, then read the realised
    # schedule back out of the trace -- the boundary this module audits.
    rounds = len(schedule.rounds())
    flips_done = t0 + schedule.makespan + rounds * (install_skew + 1) + 2
    sim.run(until=to_true(flips_done))

    if executor == TWO_PHASE:
        realized, verdict = _realize_two_phase(
            report, controller, instance, flip_xid, to_true, time_unit, t0, schedule
        )
    else:
        realized = _realized_schedule(
            report, trace_holder, schedule, to_true, time_unit, t0
        )
        verdict = verify_schedule(instance, realized)
    report.realized = realized
    report.verdict = verdict
    if report.timing_errors:
        return report  # flips unaccounted for; load comparison would lie

    # Stage 2: run the plane through the verdict's full check window, then
    # compare the measured utilisation at every unit-window midpoint.
    sim.run(until=to_true(verdict.check_end + 1) + 0.25 * time_unit)
    _compare_timelines(report, plane, verdict, to_true, time_unit, tolerance)
    report.predicted_drops = bool(verdict.blackholes)
    report.measured_drop_volume = plane.total_dropped_volume()
    return report


# ----------------------------------------------------------------------
# executor adapters
# ----------------------------------------------------------------------
def _prepare_two_phase(
    controller: Controller,
    plane,
    instance: UpdateInstance,
    flip_true: float,
) -> int:
    """Install the tagged new configuration and schedule the ingress flip."""
    dst_prefix = str(instance.destination)
    for node, nxt in instance.new_config.items():
        rule = FlowRule(
            name=f"{instance.flow.name}#v2",
            match=Match(dst_prefix=dst_prefix, tag=_TP_TAG),
            out_port=plane.port_of(node, nxt),
            priority=1,
        )
        controller.send_flow_mod(node, FlowModAdd(xid=next_xid(), rule=rule))
    controller.send_flow_mod(
        instance.destination,
        FlowModAdd(
            xid=next_xid(),
            rule=FlowRule(
                name=f"{instance.flow.name}#v2",
                match=Match(dst_prefix=dst_prefix, tag=_TP_TAG),
                out_port=HOST_PORT,
                priority=1,
            ),
        ),
    )
    source = instance.source
    local = controller.managed(source).clock.local_time(flip_true)
    flip = FlowModModify(
        xid=next_xid(),
        rule_name=instance.flow.name,
        out_port=plane.port_of(source, instance.new_next_hop(source)),
        set_tag=_TP_TAG,
        execute_at=local,
    )
    controller.send_flow_mod(source, flip)
    return flip.xid


def _realized_schedule(
    report: DiffReport,
    trace_holder: List[ExecutionTrace],
    schedule: UpdateSchedule,
    to_true,
    time_unit: float,
    t0: int,
) -> UpdateSchedule:
    """Map actual apply times back onto integer schedule steps."""
    if not trace_holder:
        report.timing_errors.append("executor never started")
        return schedule
    trace = trace_holder[0]
    times: Dict[Node, int] = {}
    for node in schedule.times:
        applied = trace.applied.get(node)
        if applied is None:
            report.timing_errors.append(f"switch {node!r} never applied its update")
            continue
        step = _to_step(report, node, applied, to_true, time_unit, t0)
        if step is not None:
            times[node] = step
    if report.timing_errors:
        return schedule
    return UpdateSchedule(times=times, start_time=min([t0, *times.values()]))


def _realize_two_phase(
    report: DiffReport,
    controller: Controller,
    instance: UpdateInstance,
    flip_xid: Optional[int],
    to_true,
    time_unit: float,
    t0: int,
    schedule: UpdateSchedule,
):
    applied = controller.apply_time(instance.source, flip_xid)
    if applied is None:
        report.timing_errors.append("ingress flip never applied")
        return schedule, Verdict(schedule_complete=True)
    flip_step = _to_step(report, instance.source, applied, to_true, time_unit, t0)
    if flip_step is None:
        return schedule, Verdict(schedule_complete=True)
    realized = UpdateSchedule({instance.source: flip_step}, start_time=min(t0, flip_step))
    return realized, verify_two_phase(instance, flip_step, t0=t0)


def _to_step(
    report: DiffReport, node: Node, applied: float, to_true, time_unit: float, t0: int
) -> Optional[int]:
    exact = (applied - to_true(t0)) / time_unit
    step = round(exact)
    if abs(exact - step) > 1e-6:
        report.timing_errors.append(
            f"switch {node!r} applied at {applied:g}s -- off the integer "
            f"time grid (step {exact:g})"
        )
        return None
    return t0 + step


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _compare_timelines(
    report: DiffReport,
    plane,
    verdict: Verdict,
    to_true,
    time_unit: float,
    tolerance: float,
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
            if abs(measured - predicted) <= tolerance:
                continue
            entry = TimelineMismatch(
                link=link_key, step=step, predicted=predicted, measured=measured
            )
            if measured > predicted and allow_excess:
                report.excesses.append(entry)
            else:
                report.mismatches.append(entry)
