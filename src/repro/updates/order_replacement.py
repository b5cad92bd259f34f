"""OR: order replacement updates (Ludwig et al., PODC'15).

Order replacement replaces rules in place -- no tags, no extra table space --
and schedules switches into *rounds* separated by controller barriers.  The
objective is to minimise the number of rounds while guaranteeing transient
loop-freedom under every asynchronous interleaving within a round (the
union-graph criterion of :mod:`repro.core.rounds`).  Minimising rounds is
NP-hard; the paper solves it with branch and bound, which
:func:`minimize_rounds` implements (greedy incumbents, subset branching,
time budget).

OR ignores link capacities and transmission delays entirely, which is why
its realised updates congest where Chronus does not (Figs. 6-8).  The
realised per-switch update times -- rounds stretched by the asynchronous
rule-installation latencies of real switches -- come from
:func:`realize_round_times`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule, schedule_from_rounds
from repro.core.search import run_round_search
from repro.network.graph import Node
from repro.trace.recorder import recorder
from repro.updates.registry import ROUNDS, Planner, UpdatePlan, register_planner


@dataclass
class RoundMinimizationResult:
    """Result of the round-minimisation search.

    Attributes:
        rounds: Best round partition found.
        proven: Whether the search completed without truncation (true
            optimum).
        explored: Search nodes visited.
        elapsed: Wall-clock seconds.
        width_cut: Whether a greedy maximal safe set was truncated to
            ``max_branch_width`` somewhere in the search -- a truncated
            branch may hide a shorter partition, so ``width_cut``
            forfeits the optimality claim (``proven`` is forced
            ``False``).
    """

    rounds: List[List[Node]]
    proven: bool
    explored: int
    elapsed: float
    width_cut: bool = False

    @property
    def round_count(self) -> int:
        return len(self.rounds)


def minimize_rounds(
    instance: UpdateInstance,
    time_budget: Optional[float] = None,
    max_branch_width: int = 16,
    node_budget: Optional[int] = None,
) -> RoundMinimizationResult:
    """Minimise the number of loop-free update rounds by branch and bound.

    Branches, per round, over the subsets of switches that are safe to
    update together (subsets of a safe set are safe, so enumeration starts
    from the greedy maximal set and removes elements).  The greedy partition
    seeds the incumbent; a wall-clock budget makes the solver anytime --
    exactly the behaviour Fig. 10 measures.  The search itself is
    :func:`repro.core.search.run_round_search`.

    Args:
        instance: The update instance.
        time_budget: Seconds before returning the incumbent (``None`` =
            solve to optimality).
        max_branch_width: Cap on per-round subset enumeration.  Truncation
            is reported via ``width_cut`` and forfeits ``proven``.
        node_budget: Deterministic cap on explored search nodes.  Unlike
            ``time_budget``, exhausting it is a pure function of the
            instance, so results are reproducible across machines and
            under CPU contention (the parallel-vs-serial bench identity
            gate relies on this).
    """
    with recorder.timer("or.search") as search:
        rounds, explored, timed_out, width_cut, elapsed = run_round_search(
            instance, time_budget, max_branch_width, node_budget
        )
        result = RoundMinimizationResult(
            rounds=rounds,
            proven=not timed_out and not width_cut,
            explored=explored,
            elapsed=elapsed,
            width_cut=width_cut,
        )
        search.set(
            switches=len(tuple(instance.switches_to_update)),
            explored=result.explored,
            proven=result.proven,
            width_cut=result.width_cut,
            rounds=result.round_count,
        )
    return result


#: Most extra steps a switch lags within a round when OR realises its
#: rounds: the asynchronous installation latency, in whole steps.
SKEW = 3


def realize_round_times(
    rounds: Sequence[Sequence[Node]],
    rng: random.Random,
    max_skew: int = 3,
    t0: int = 0,
) -> UpdateSchedule:
    """Realised asynchronous update times of a round-based execution.

    Within a round, each switch's rule becomes active after a random
    installation latency (the paper samples "a random number from the data
    of [9]" -- the Dionysus switch measurements); the controller waits for
    all barrier replies before the next round.

    Args:
        rounds: Round partition.
        rng: Random source of the latencies.
        max_skew: Maximum extra time steps a switch may lag within a round.
        t0: Start time.

    Returns:
        The realised :class:`UpdateSchedule` (generally *not* loop-free
        against in-flight traffic, which is exactly OR's weakness).
    """
    times: Dict[Node, int] = {}
    start = t0
    for round_nodes in rounds:
        latest = start
        for node in round_nodes:
            when = start + rng.randint(0, max_skew)
            times[node] = when
            latest = max(latest, when)
        start = latest + 1  # barrier: next round after every reply
    return UpdateSchedule(times=times, start_time=t0, feasible=False)


class OrPlanner(Planner):
    """OR: round-minimal loop-free rule replacement, realised asynchronously.

    The plan carries both halves of a round-based execution: ``nominal``
    is the round partition (what the controller dispatches and the gate
    verifies), ``schedule`` one realisation of it under per-switch
    installation latencies of up to :data:`SKEW` steps (what the sweep
    measures).  ``time_budget`` / ``node_budget`` bound the exact round
    minimiser; the node budget is the reproducible one.
    """

    name = "or"
    title = "OR: round-minimal loop-free replacement, realised asynchronously"
    sweep_order = 2
    exact = True
    claims_consistency = False  # loop-free by design, but capacity-oblivious
    executor = ROUNDS

    def _plan(
        self,
        instance: UpdateInstance,
        *,
        rng: Optional[random.Random] = None,
        background=None,
        t0: int = 0,
        time_budget: Optional[float] = None,
        node_budget: Optional[int] = None,
        **_,
    ) -> UpdatePlan:
        result = minimize_rounds(
            instance, time_budget=time_budget, node_budget=node_budget
        )
        if rng is None:
            rng = random.Random(0)
        return UpdatePlan(
            scheme=self.name,
            schedule=realize_round_times(result.rounds, rng=rng, max_skew=SKEW, t0=t0),
            notes="" if result.proven else "round minimisation hit its budget",
            instance=instance,
            nominal=schedule_from_rounds(result.rounds, start_time=t0, feasible=False),
            proven=result.proven,
            elapsed=result.elapsed,
        )

    def sweep_options(self, params):
        return {
            "time_budget": params.get("or_budget", 0.5),
            "node_budget": params.get("or_node_budget"),
        }


register_planner(OrPlanner())
