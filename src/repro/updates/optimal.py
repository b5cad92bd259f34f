"""OPT as a planner: the exact MUTP solution behind the registry seam."""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional

from repro.core.instance import UpdateInstance
from repro.core.optimal import optimal_schedule
from repro.core.rounds import greedy_loop_free_rounds
from repro.updates.order_replacement import realize_round_times
from repro.updates.registry import (
    Planner,
    SharedEvaluation,
    UpdatePlan,
    register_planner,
)


class OptPlanner(Planner):
    """OPT: branch-and-bound optimum of the MUTP program.

    ``time_budget`` is the wall-clock budget per instance in seconds; on
    exhaustion the best incumbent (or a best-effort loop-free completion)
    is returned, mirroring the paper's Fig. 10 cutoffs.  ``node_budget``
    caps explored search nodes instead -- outcomes stop depending on
    machine load (the validation gate relies on this for reproducible
    verdicts).
    """

    name = "opt"
    title = "OPT: branch-and-bound optimum of the MUTP program"
    sweep_order = 1
    exact = True

    def _plan(
        self,
        instance: UpdateInstance,
        *,
        rng: Optional[random.Random] = None,
        background=None,
        t0: int = 0,
        time_budget: Optional[float] = None,
        node_budget: Optional[int] = None,
        shared: Optional[SharedEvaluation] = None,
        **_,
    ) -> UpdatePlan:
        result = optimal_schedule(
            instance,
            t0=t0,
            time_budget=time_budget,
            node_budget=node_budget,
            incumbent=None if shared is None else shared.greedy(t0, timer="opt.seed"),
        )
        if result.schedule is not None:
            return UpdatePlan(
                scheme=self.name,
                schedule=result.schedule,
                notes="" if result.proven else "optimality not proven (budget)",
                instance=instance,
                proven=result.proven,
                elapsed=result.elapsed,
            )
        # Infeasible (or budget ran out): execute best-effort loop-free
        # rounds and account the resulting congestion.  One draw per switch
        # is taken from the caller's RNG even though the skew is zero -- the
        # sweep's shared per-instance stream depends on it.
        rounds = greedy_loop_free_rounds(instance)
        if rng is None:
            rng = random.Random(0)
        return UpdatePlan(
            scheme=self.name,
            schedule=realize_round_times(rounds, rng=rng, max_skew=0, t0=t0),
            feasible=False,
            notes=(
                "no congestion-free schedule exists"
                if result.proven
                else "search budget exhausted without a feasible schedule"
            ),
            instance=instance,
            proven=result.proven,
            elapsed=result.elapsed,
        )

    def sweep_options(self, params: Mapping[str, object]) -> Dict[str, object]:
        return {
            "time_budget": params.get("opt_budget", 1.0),
            "node_budget": params.get("opt_node_budget"),
        }


register_planner(OptPlanner())
