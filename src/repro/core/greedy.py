"""Algorithm 2: the Chronus greedy MUTP scheduler.

At every time step the scheduler updates as many switches as possible:
Algorithm 3 (:mod:`repro.core.dependency`) orders the pending switches into
dependency chains, Algorithm 4 (:mod:`repro.core.loops`) rules out updates
that would deflect in-flight traffic into a forwarding loop, and the
time-extended flow state (:mod:`repro.core.intervals`) supplies the
congestion-freedom ground truth.  Two decision modes are provided:

* ``"exact"`` (default): every candidate round is previewed against the
  interval tracker, so the resulting schedule provably satisfies
  Definitions 2 and 3 (this realises Theorem 3's guarantee).
* ``"paper"``: decisions use only Algorithm 3's chains and Algorithm 4's
  backward walk, exactly as printed in the paper; the final schedule is
  still validated and the result reports any violation.

Exact mode runs Algorithm 3 through a persistent
:class:`repro.core.dependency.DependencyState` that only recomputes
verdicts invalidated by last round's commits, and probes candidate heads
one at a time with ``probe_and_commit`` on a copy-on-write scratch clone
that is adopted wholesale when the round is non-empty.  Sequential
single-head probes split and sweep each accepted head's fresh suffix
exactly once; they accept exactly the heads a joint
``preview_round(accepted + [head])`` would (pinned at tracker level in
``tests/test_array_tracker.py``).  A refused probe costs what it takes to
refuse it (``probe_and_commit`` returns a witness and leaves the scratch
untouched), and the all-heads-refused fallback does not ask again about a
head this round already refused while the scratch has not moved.  The flow state is whichever tracker
:func:`repro.core.tracker.make_tracker` picks for the instance's paths --
the dict layout on short trajectories, the struct-of-arrays layout on long
ones; the schedule is the same either way (``tests/test_tracker_choice.py``).

Instances without a congestion-free schedule (the ILP can be infeasible;
cf. Fig. 7) are completed best-effort: the remaining switches are applied in
greedy loop-free rounds and the result is flagged infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.dependency import DependencySet, DependencyState
from repro.core.instance import UpdateInstance
from repro.core.intervals import RoundReport
from repro.core.loops import creates_forwarding_loop
from repro.core.rounds import greedy_loop_free_rounds
from repro.core.schedule import UpdateSchedule
from repro.core.tracker import Tracker, make_tracker
from repro.network.graph import Node
from repro.trace.recorder import recorder

EXACT = "exact"
PAPER = "paper"

# Below this pending-set size, a round in which every chain head was
# rejected falls back to probing every pending switch (exact knowledge is
# then never worse than the chain heuristic); above it the prefiltered
# heads are trusted.
_FALLBACK_PROBE_LIMIT = 200


@dataclass
class GreedyResult:
    """Outcome of the greedy scheduler.

    Attributes:
        schedule: The produced timed update schedule (always complete).
        feasible: ``True`` when the schedule is congestion- and loop-free.
        stalled_at: Time step at which the scheduler gave up waiting and
            switched to best-effort completion, or ``None``.
        violations: Round reports that contained violations (non-empty only
            for best-effort completions or paper-mode misjudgements).
        dependency_log: Per-step dependency sets, for inspection and for the
            paper's Fig. 5 walk-through.
    """

    schedule: UpdateSchedule
    feasible: bool
    stalled_at: Optional[int] = None
    violations: List[RoundReport] = field(default_factory=list)
    dependency_log: List[Tuple[int, DependencySet]] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


def greedy_schedule(
    instance: UpdateInstance,
    t0: int = 0,
    mode: str = EXACT,
    keep_dependency_log: bool = False,
    max_steps: Optional[int] = None,
    background=None,
) -> GreedyResult:
    """Run Algorithm 2 and return a complete timed update schedule.

    Args:
        instance: The update instance.
        t0: The current time step (updates start no earlier).
        mode: ``"exact"`` or ``"paper"`` (see module docstring).
        keep_dependency_log: Record Algorithm 3's output per step.
        max_steps: Safety bound on scheduling steps; defaults to a generous
            function of the instance size.
        background: Static per-link load from other flows (see
            :class:`repro.core.intervals.IntervalTracker`); exact mode's
            congestion checks then become joint across flows.

    Returns:
        A :class:`GreedyResult`; ``result.feasible`` distinguishes proper
        congestion- and loop-free schedules from best-effort completions.
    """
    if mode not in (EXACT, PAPER):
        raise ValueError(f"unknown greedy mode {mode!r}")
    with recorder.timer("greedy"):
        # Insertion-ordered dict as the pending set: O(1) membership tests and
        # removals with the same stable iteration order a list gave, minus the
        # O(n) ``list.remove`` per committed switch.
        pending: Dict[Node, None] = dict.fromkeys(instance.switches_to_update)
        with recorder.timer("tracker.build"):
            tracker = make_tracker(instance, t0=t0, background=background)
        state = DependencyState(instance, pending)
        times: Dict[Node, int] = {}
        violations: List[RoundReport] = []
        dependency_log: List[Tuple[int, DependencySet]] = []
        stalled_at: Optional[int] = None

        if max_steps is None:
            max_steps = 4 * (len(instance.network) + instance.old_path_delay + instance.new_path_delay) + 16

        t = t0
        for _ in range(max_steps):
            if not pending:
                break
            with recorder.timer("dependencies"):
                dependencies = state.relations(t)
            if keep_dependency_log:
                dependency_log.append((t, dependencies))
            if dependencies.has_cycle:
                stalled_at = t
                break

            with recorder.timer("select"):
                round_nodes, adopted = _select_round(
                    instance, tracker, dependencies, pending, t, mode
                )
            if round_nodes:
                if adopted is not None:
                    # The scratch clone already holds every accepted probe
                    # (all verified clean); adopting it skips re-splitting.
                    tracker = adopted
                else:
                    with recorder.timer("apply"):
                        report = tracker.apply_round(round_nodes, t)
                    if not report.ok:
                        violations.append(report)
                for node in round_nodes:
                    times[node] = t
                    del pending[node]
                with recorder.timer("dependencies"), recorder.timer("commit"):
                    state.commit(round_nodes, t)
            else:
                horizon = tracker.finite_drain_horizon()
                if horizon is None or t > horizon:
                    stalled_at = t
                    break
            t += 1
        else:
            if pending:
                stalled_at = t

        if pending:
            # Best effort: finish with greedy loop-free rounds, ignoring
            # capacities; the instance admits no congestion-free schedule (or
            # the step bound was hit).
            start = max(t, stalled_at if stalled_at is not None else t)
            for offset, round_nodes in enumerate(
                greedy_loop_free_rounds(instance, list(pending), set(times))
            ):
                when = start + offset
                report = tracker.apply_round(round_nodes, when)
                if not report.ok:
                    violations.append(report)
                for node in round_nodes:
                    times[node] = when

        with recorder.timer("final_check"):
            feasible = stalled_at is None and not violations and tracker.ok
        schedule = UpdateSchedule(times=times, start_time=t0, feasible=feasible)
        return GreedyResult(
            schedule=schedule,
            feasible=feasible,
            stalled_at=stalled_at,
            violations=violations,
            dependency_log=dependency_log,
        )


def _select_round(
    instance: UpdateInstance,
    tracker: Tracker,
    dependencies: DependencySet,
    pending: Dict[Node, None],
    t: int,
    mode: str,
) -> Tuple[List[Node], Optional[Tracker]]:
    """Pick the switches to update at step ``t`` (lines 9-14 of Algorithm 2).

    Returns ``(round_nodes, adopted)``: when ``adopted`` is not ``None`` it
    is a tracker with the whole round already committed at ``t`` (the
    exact mode's scratch clone) and the caller must swap it in
    instead of re-applying the round.
    """
    round_nodes: List[Node] = []
    # One committed-times snapshot per round, extended in place as heads are
    # accepted (a head is never in it while being examined, matching the
    # paper's "already updated plus this round so far" committed set).
    committed = tracker.applied
    if mode == PAPER:
        for head in dependencies.heads:
            if not creates_forwarding_loop(instance, committed, head, t):
                round_nodes.append(head)
                committed[head] = t
        return round_nodes, None

    # Probe candidates one at a time against a scratch clone that
    # accumulates the accepted heads.  Each probe splits and sweeps only
    # the candidate's own deflections on top of a verified-clean baseline,
    # which is decision-equivalent to a joint preview of the whole round
    # at a fraction of the work.
    scratch: Optional[Tracker] = None
    refused: Set[Node] = set()
    for head in dependencies.heads:
        if creates_forwarding_loop(instance, committed, head, t):
            continue
        if scratch is None:
            scratch = tracker.clone()
        if scratch.probe_and_commit([head], t).ok:
            round_nodes.append(head)
            committed[head] = t
        else:
            refused.add(head)
    if not round_nodes and len(pending) <= _FALLBACK_PROBE_LIMIT:
        for node in pending:
            if node in refused:
                # A refused probe left the scratch untouched, so until a
                # fallback probe is accepted it is bit for bit the state
                # this head was refused on: the answer is known.
                if recorder.enabled:
                    recorder.count("greedy.fallback.skipped")
                continue
            if scratch is None:
                scratch = tracker.clone()
            if scratch.probe_and_commit([node], t).ok:
                round_nodes.append(node)
                refused.clear()
    return round_nodes, scratch if round_nodes else None
