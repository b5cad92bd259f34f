"""Algorithm 2: the Chronus greedy MUTP scheduler.

At every time step the scheduler updates as many switches as possible:
Algorithm 3 (:mod:`repro.core.dependency`) orders the pending switches into
dependency chains, Algorithm 4 (:mod:`repro.core.loops`) rules out updates
that would deflect in-flight traffic into a forwarding loop, and the
time-extended flow state (:mod:`repro.core.intervals`) supplies the
congestion-freedom ground truth.  Two decision modes are provided:

* ``"exact"`` (default): every round is made of probes the interval
  tracker proved clean, and a clean probe on a clean state leaves it
  clean, so a schedule from a clean initial state provably satisfies
  Definitions 2 and 3 (this realises Theorem 3's guarantee) and
  ``feasible`` is read off that initial state; from a congested one the
  final state is swept.
* ``"paper"``: decisions use only Algorithm 3's chains and Algorithm 4's
  backward walk, exactly as printed in the paper; the final schedule is
  still validated and the result reports any violation.

Exact mode runs Algorithm 3 through a persistent
:class:`repro.core.dependency.DependencyState` that only recomputes
verdicts invalidated by last round's commits (and none for a switch no
link below ``2d`` can bind), Algorithm 4 as a
:class:`repro.core.loops.LoopGates` range query, and probes candidate
heads one at a time with ``probe_and_commit`` straight into the run's one
tracker, whose initial verdict is read first: a refused probe leaves it
untouched (its report is a witness), so nothing is cloned.  Sequential
single-head probes split and sweep each accepted head's fresh suffix
exactly once; they accept exactly the heads the joint round
``accepted + [head]`` applied to the round's starting state would leave
clean (pinned at tracker level in ``tests/test_array_tracker.py``), and
the all-heads-refused fallback does
not ask again about a head this round already refused while the tracker
has not moved.  The flow state is whichever tracker
:func:`repro.core.tracker.make_tracker` picks for the instance's paths --
the dict layout on short trajectories, the struct-of-arrays layout on long
ones; the schedule is the same either way (``tests/test_tracker_choice.py``).

Instances without a congestion-free schedule (the ILP can be infeasible;
cf. Fig. 7) are completed best-effort: the remaining switches are applied in
greedy loop-free rounds and the result is flagged infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.dependency import DependencySet, DependencyState
from repro.core.instance import UpdateInstance
from repro.core.intervals import RoundReport
from repro.core.loops import LoopGates
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
            # Exact rounds are probed into ``tracker``: judge its initial
            # state now (the memos this builds serve the probes).
            initially_ok = mode == EXACT and tracker.ok
        gates = LoopGates(instance)
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
                round_nodes = _select_round(tracker, gates, dependencies, pending, t, mode)
            if round_nodes:
                if mode == PAPER:
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
            # Without a stall every exact round came from clean probes, and
            # a clean probe on a clean state leaves it clean: a clean
            # initial state answers for the final one.
            feasible = stalled_at is None and not violations and (initially_ok or tracker.ok)
        schedule = UpdateSchedule(times=times, start_time=t0, feasible=feasible)
        return GreedyResult(
            schedule=schedule,
            feasible=feasible,
            stalled_at=stalled_at,
            violations=violations,
            dependency_log=dependency_log,
        )


def _select_round(
    tracker: Tracker,
    gates: LoopGates,
    dependencies: DependencySet,
    pending: Dict[Node, None],
    t: int,
    mode: str,
) -> List[Node]:
    """Pick the switches to update at step ``t`` (lines 9-14 of Algorithm 2).

    Every pick is committed to ``gates`` as it is made, so Algorithm 4 sees
    the switches already updated plus this round's so far.  In exact mode
    every pick is also committed to ``tracker`` by its accepted probe; in
    paper mode the caller applies the round.
    """
    round_nodes: List[Node] = []
    # Exact mode probes candidates one at a time against the live tracker,
    # which accumulates the accepted heads.  Each probe splits and sweeps
    # only the candidate's own deflections on top of a verified-clean
    # baseline, which is decision-equivalent to a joint check of the
    # whole round at a fraction of the work.
    refused: Set[Node] = set()
    for head in dependencies.heads:
        if gates.creates_loop(head, t):
            continue
        if mode == PAPER or tracker.probe_and_commit([head], t).ok:
            round_nodes.append(head)
            gates.commit(head, t)
        else:
            refused.add(head)
    if mode == EXACT and not round_nodes and len(pending) <= _FALLBACK_PROBE_LIMIT:
        for node in pending:
            if node in refused:
                # A refused probe left the tracker untouched, so until a
                # fallback probe is accepted it is bit for bit the state
                # this head was refused on: the answer is known.
                if recorder.enabled:
                    recorder.count("greedy.fallback.skipped")
                continue
            if tracker.probe_and_commit([node], t).ok:
                round_nodes.append(node)
                gates.commit(node, t)
                refused.clear()
    return round_nodes
