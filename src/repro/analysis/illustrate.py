"""Text renderings of the paper's illustrative figures (Figs. 1, 2 and 5).

The evaluation figures live in :mod:`repro.experiments`; this module covers
the *explanatory* ones: the per-time-step flow state during an update (the
time-extended network of Fig. 2) and the evolution of Algorithm 3's
dependency relation sets (Fig. 5).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.greedy import greedy_schedule
from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.validate.verifier import verify_schedule


def render_flow_timeline(
    instance: UpdateInstance,
    schedule: UpdateSchedule,
    t_start: Optional[int] = None,
    t_end: Optional[int] = None,
) -> str:
    """The dynamic flow as the time-extended network shows it.

    One row per time step: the switches updating at that step and every
    link carrying flow, marked ``=`` when the departing switch already runs
    its new rule and ``-`` while it still runs the old one.  Congested links
    are flagged with ``!``.

    Args:
        instance: The update instance.
        schedule: The timed update schedule being illustrated.
        t_start: First rendered step (default: one old-path delay before
            ``t0``, the history window of Fig. 2).
        t_end: Last rendered step (default: until the new path's steady
            state).
    """
    verdict = verify_schedule(instance, schedule)
    times = schedule.as_dict()
    if t_start is None:
        t_start = schedule.t0 - instance.old_path_delay
    if t_end is None:
        t_end = schedule.last_time + instance.new_path_delay + 1

    congested = {
        (violation.link, t)
        for violation in verdict.congestion
        for t in range(violation.start, violation.end + 1)
    }
    lines: List[str] = []
    header = (
        f"time-extended flow state of {instance.flow.name!r} "
        f"({instance.source} -> {instance.destination}, demand {instance.demand:g})"
    )
    lines.append(header)
    lines.append("=" * len(header))
    for t in range(t_start, t_end + 1):
        updates = sorted(node for node, when in times.items() if when == t)
        loaded: List[str] = []
        for (src, dst), series in sorted(verdict.loads.items()):
            load = series.get(t, 0.0)
            if load <= 0.0:
                continue
            when = times.get(src)
            marker = "=" if when is not None and when <= t else "-"
            flag = "!" if ((src, dst), t) in congested else ""
            loaded.append(f"{src}{marker}>{dst}{flag}")
        update_note = f"  update: {', '.join(updates)}" if updates else ""
        lines.append(f"t{t:>3}: {' '.join(loaded) or '(idle)'}{update_note}")
    summary = []
    if verdict.loops:
        summary.append(f"{len(verdict.loops)} loop event(s)")
    if verdict.congestion:
        summary.append(f"{verdict.congested_timed_links} congestion event(s)")
    lines.append("verdict: " + (", ".join(summary) if summary else "consistent"))
    return "\n".join(lines)


def render_dependency_evolution(instance: UpdateInstance) -> str:
    """Fig. 5: the dependency relation set at every greedy time step."""
    result = greedy_schedule(instance, keep_dependency_log=True)
    lines = ["dependency relation sets (Algorithm 3) per time step"]
    rounds = {when: nodes for when, nodes in result.schedule.rounds()}
    for t, deps in result.dependency_log:
        chains = ", ".join("(" + " -> ".join(chain) + ")" for chain in deps.chains)
        updated = rounds.get(t, ())
        suffix = f"   updated: {', '.join(updated)}" if updated else ""
        deferred = f"   deferred: {', '.join(sorted(deps.deferred))}" if deps.deferred else ""
        lines.append(f"t{t}: {{{chains or 'empty'}}}{suffix}{deferred}")
    lines.append(f"schedule: {result.schedule}")
    return "\n".join(lines)
