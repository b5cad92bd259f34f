"""OPT as a protocol: the exact MUTP solution wrapped in the plan interface."""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Tuple

from repro.core.instance import UpdateInstance
from repro.core.optimal import optimal_schedule
from repro.core.rounds import greedy_loop_free_rounds
from repro.core.schedule import UpdateSchedule, schedule_from_rounds
from repro.updates.base import (
    RuleAccounting,
    UpdatePlan,
    UpdateProtocol,
    count_baseline_rules,
)
from repro.updates.registry import PlanResult, Planner, register_planner


class OptimalProtocol(UpdateProtocol):
    """OPT: branch-and-bound optimum of the MUTP program.

    Args:
        time_budget: Wall-clock budget per instance in seconds; on exhaustion
            the best incumbent (or a best-effort loop-free completion) is
            returned, mirroring the paper's Fig. 10 cutoffs.
        node_budget: Deterministic cap on explored search nodes -- outcomes
            stop depending on machine load (the validation gate relies on
            this for reproducible verdicts).
        verify: Attach an independent :class:`repro.core.verdict.Verdict`
            to every plan.
    """

    name = "opt"

    def __init__(
        self,
        time_budget: Optional[float] = None,
        node_budget: Optional[int] = None,
        verify: bool = False,
    ) -> None:
        self.time_budget = time_budget
        self.node_budget = node_budget
        self.verify = verify

    def plan(self, instance: UpdateInstance, t0: int = 0) -> UpdatePlan:
        result = optimal_schedule(
            instance,
            t0=t0,
            time_budget=self.time_budget,
            node_budget=self.node_budget,
        )
        if result.schedule is not None:
            schedule = result.schedule
            feasible = True
            notes = "" if result.proven else "optimality not proven (budget)"
        else:
            # Infeasible (or budget exhausted without incumbent): fall back
            # to loop-free rounds so the update still completes.
            rounds = greedy_loop_free_rounds(instance)
            schedule = schedule_from_rounds(rounds, start_time=t0, feasible=False)
            feasible = False
            notes = (
                "no congestion-free schedule exists"
                if result.proven
                else "search budget exhausted without a feasible schedule"
            )

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
        verdict = None
        if self.verify:
            from repro.validate.verifier import verify_schedule

            verdict = verify_schedule(instance, schedule)
        return UpdatePlan(
            protocol=self.name,
            schedule=schedule,
            rounds=schedule.rounds(),
            rules=rules,
            feasible=feasible,
            notes=notes,
            instance=instance,
            verdict=verdict,
        )


class OptPlanner(Planner):
    """Registry entry for the exact MUTP optimum."""

    name = "opt"
    title = "OPT: branch-and-bound optimum of the MUTP program"
    sweep_order = 1
    exact = True
    supports_budget = True

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
    ) -> PlanResult:
        result = optimal_schedule(
            instance,
            t0=t0,
            time_budget=time_budget,
            node_budget=node_budget,
        )
        if result.schedule is not None:
            return PlanResult(
                scheme=self.name,
                schedule=result.schedule,
                feasible=True,
                notes="" if result.proven else "optimality not proven (budget)",
            )
        # Infeasible (or budget ran out): execute best-effort loop-free
        # rounds and account the resulting congestion.
        rounds = greedy_loop_free_rounds(instance)
        if rng is None:
            rng = random.Random(0)
        from repro.updates.order_replacement import realize_round_times

        fallback = realize_round_times(rounds, rng=rng, max_skew=0, t0=t0)
        return PlanResult(
            scheme=self.name,
            schedule=fallback,
            feasible=False,
            notes=(
                "no congestion-free schedule exists"
                if result.proven
                else "search budget exhausted without a feasible schedule"
            ),
        )

    def sweep_options(self, params: Mapping[str, object]) -> Dict[str, object]:
        return {
            "time_budget": params.get("opt_budget", 1.0),
            "node_budget": params.get("opt_node_budget"),
        }

    def protocol(self, **options) -> OptimalProtocol:
        return OptimalProtocol(
            time_budget=options.get("time_budget"),
            node_budget=options.get("node_budget"),
            verify=bool(options.get("verify", False)),
        )

    def fault_schedule(
        self,
        instance: UpdateInstance,
        *,
        node_budget: Optional[int] = None,
        epsilon: float = 0.0,
    ) -> Optional[UpdateSchedule]:
        return self.protocol(node_budget=node_budget).plan(instance).schedule

    def timed_run(self, instance: UpdateInstance, cutoff: float) -> Tuple[float, bool]:
        result = optimal_schedule(instance, time_budget=cutoff)
        return result.elapsed, result.proven

    def makespan_sample(self, instance: UpdateInstance, **options) -> Optional[int]:
        result = optimal_schedule(
            instance,
            time_budget=options.get("time_budget"),
            node_budget=options.get("node_budget"),
        )
        if result.schedule is None:
            return None
        return result.schedule.makespan


register_planner(OptPlanner())
