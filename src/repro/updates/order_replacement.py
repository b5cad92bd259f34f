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
from repro.core.rounds import greedy_loop_free_rounds
from repro.core.schedule import UpdateSchedule, schedule_from_rounds
from repro.core.search import run_round_search
from repro.network.graph import Node
from repro.trace import recorder
from repro.updates.base import (
    RuleAccounting,
    UpdatePlan,
    UpdateProtocol,
    count_baseline_rules,
)
from repro.updates.registry import ROUNDS, PlanResult, Planner, register_planner


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
    handle = recorder.span(
        "or.search", {"switches": len(tuple(instance.switches_to_update))}
    )
    try:
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
        if handle.span_id is not None:
            handle.attributes.update(
                {
                    "explored": result.explored,
                    "proven": result.proven,
                    "width_cut": result.width_cut,
                    "rounds": result.round_count,
                }
            )
    finally:
        handle.close()
    return result


def realize_round_times(
    rounds: Sequence[Sequence[Node]],
    rng: Optional[random.Random] = None,
    max_skew: int = 3,
    t0: int = 0,
    seed: Optional[int] = None,
) -> UpdateSchedule:
    """Realised asynchronous update times of a round-based execution.

    Within a round, each switch's rule becomes active after a random
    installation latency (the paper samples "a random number from the data
    of [9]" -- the Dionysus switch measurements); the controller waits for
    all barrier replies before the next round.

    Args:
        rounds: Round partition.
        rng: Random source; takes precedence over ``seed``.
        max_skew: Maximum extra time steps a switch may lag within a round.
        t0: Start time.
        seed: Seed for a fresh ``random.Random`` when ``rng`` is omitted,
            making realisations reproducible across processes.

    Returns:
        The realised :class:`UpdateSchedule` (generally *not* loop-free
        against in-flight traffic, which is exactly OR's weakness).
    """
    if rng is None:
        rng = random.Random(seed)
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


class OrderReplacementProtocol(UpdateProtocol):
    """OR: round-minimal loop-free rule replacement.

    Args:
        exact: Use the branch-and-bound minimiser (the paper's choice);
            otherwise the greedy maximal-round partition.
        time_budget: Budget for the exact solver.
        rng: Random source for realised asynchronous times.
        max_skew: Asynchrony within a round, in time steps.
        node_budget: Deterministic explored-node cap for the exact solver
            (reproducible results across machines).
        verify: Attach an independent :class:`repro.core.verdict.Verdict`
            for the *nominal* round schedule to every plan.
    """

    name = "or"

    def __init__(
        self,
        exact: bool = True,
        time_budget: Optional[float] = None,
        rng: Optional[random.Random] = None,
        max_skew: int = 3,
        node_budget: Optional[int] = None,
        verify: bool = False,
    ) -> None:
        self.exact = exact
        self.time_budget = time_budget
        self.rng = rng if rng is not None else random.Random()
        self.max_skew = max_skew
        self.node_budget = node_budget
        self.verify = verify

    def plan(self, instance: UpdateInstance, t0: int = 0) -> UpdatePlan:
        if self.exact:
            result = minimize_rounds(
                instance,
                time_budget=self.time_budget,
                node_budget=self.node_budget,
            )
            rounds = result.rounds
            notes = "" if result.proven else "round minimisation hit its budget"
        else:
            rounds = greedy_loop_free_rounds(instance)
            notes = "greedy maximal rounds"

        baseline = count_baseline_rules(instance)
        installs = sum(
            1 for node in instance.switches_to_update if instance.old_next_hop(node) is None
        )
        modifies = len(instance.switches_to_update) - installs
        rules = RuleAccounting(
            installs=installs,
            modifies=modifies,
            deletes=0,
            baseline_rules=baseline,
            peak_rules=baseline + installs,
        )
        nominal = schedule_from_rounds(rounds, start_time=t0, feasible=False)
        verdict = None
        if self.verify:
            from repro.validate.verifier import verify_schedule

            verdict = verify_schedule(instance, nominal)
        return UpdatePlan(
            protocol=self.name,
            schedule=nominal,
            rounds=nominal.rounds(),
            rules=rules,
            feasible=False,  # loop-free by design, but capacity-oblivious
            notes=notes,
            instance=instance,
            verdict=verdict,
        )

    def realize(self, plan: UpdatePlan, t0: int = 0) -> UpdateSchedule:
        """Sample realised asynchronous update times for ``plan``."""
        rounds = [list(nodes) for _, nodes in plan.rounds]
        return realize_round_times(rounds, rng=self.rng, max_skew=self.max_skew, t0=t0)


class OrPlanner(Planner):
    """Registry entry for OR's realised asynchronous rounds."""

    name = "or"
    title = "OR: round-minimal loop-free replacement, realised asynchronously"
    sweep_order = 2
    exact = True
    supports_budget = True
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
        skew: int = 3,
        **_,
    ) -> PlanResult:
        result = minimize_rounds(
            instance, time_budget=time_budget, node_budget=node_budget
        )
        if rng is None:
            rng = random.Random(0)
        realized = realize_round_times(result.rounds, rng=rng, max_skew=skew, t0=t0)
        return PlanResult(
            scheme=self.name,
            schedule=realized,
            feasible=True,  # judged purely by the measured metrics
            notes="" if result.proven else "round minimisation hit its budget",
        )

    def sweep_options(self, params):
        return {
            "time_budget": params.get("or_budget", 0.5),
            "node_budget": params.get("or_node_budget"),
            "skew": params.get("or_skew", 3),
        }

    def protocol(self, **options) -> OrderReplacementProtocol:
        kwargs = {
            "node_budget": options.get("node_budget"),
            "verify": bool(options.get("verify", False)),
        }
        if options.get("rng") is not None:
            kwargs["rng"] = options["rng"]
        return OrderReplacementProtocol(**kwargs)

    def fault_schedule(
        self,
        instance: UpdateInstance,
        *,
        node_budget: Optional[int] = None,
        epsilon: float = 0.0,
    ) -> Optional[UpdateSchedule]:
        return schedule_from_rounds(
            minimize_rounds(instance, node_budget=node_budget).rounds
        )

    def timed_run(self, instance: UpdateInstance, cutoff: float):
        result = minimize_rounds(instance, time_budget=cutoff)
        return result.elapsed, result.proven


register_planner(OrPlanner())
