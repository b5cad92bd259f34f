"""The Chronus protocol: timed updates from the greedy MUTP scheduler.

Chronus never adds forwarding rules: each to-be-updated switch receives one
in-place action modification, scheduled at the exact time point computed by
Algorithm 2.  Switches that appear only on the new path receive one install
(they had no rule for the flow before); this is the entire rule footprint,
which is what lets Chronus "save over 60% of the rules" against two-phase
updates (Fig. 9).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.greedy import EXACT, greedy_schedule
from repro.core.instance import UpdateInstance
from repro.updates.base import (
    RuleAccounting,
    UpdatePlan,
    UpdateProtocol,
    count_baseline_rules,
)
from repro.updates.registry import PlanResult, Planner, register_planner


class ChronusProtocol(UpdateProtocol):
    """Chronus: congestion- and loop-free timed updates.

    Args:
        mode: Greedy decision mode (``"exact"`` or ``"paper"``), see
            :mod:`repro.core.greedy`.
        verify: Attach an independent :class:`repro.core.verdict.Verdict`
            (from :func:`repro.validate.verify_schedule`) to every plan.
    """

    name = "chronus"

    def __init__(self, mode: str = EXACT, verify: bool = False) -> None:
        self.mode = mode
        self.verify = verify

    def plan(self, instance: UpdateInstance, t0: int = 0) -> UpdatePlan:
        result = greedy_schedule(instance, t0=t0, mode=self.mode)
        schedule = result.schedule

        baseline = count_baseline_rules(instance)
        installs = 0
        modifies = 0
        for node in instance.switches_to_update:
            if instance.old_next_hop(node) is None:
                installs += 1  # brand-new rule on a new-path-only switch
            else:
                modifies += 1  # in-place action modification
        rules = RuleAccounting(
            installs=installs,
            modifies=modifies,
            deletes=0,
            baseline_rules=baseline,
            peak_rules=baseline + installs,
        )

        notes = ""
        if not result.feasible:
            notes = (
                "no congestion-free schedule exists; completed best-effort "
                f"after stalling at t={result.stalled_at}"
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
            feasible=result.feasible,
            notes=notes,
            instance=instance,
            verdict=verdict,
        )


class ChronusPlanner(Planner):
    """Registry entry for Chronus (see :class:`ChronusProtocol`)."""

    name = "chronus"
    title = "Chronus: greedy congestion- and loop-free timed updates (Alg. 2)"
    sweep_order = 0

    def _plan(
        self,
        instance: UpdateInstance,
        *,
        rng: Optional[random.Random] = None,
        background=None,
        t0: int = 0,
        mode: str = EXACT,
        **_,
    ) -> PlanResult:
        result = greedy_schedule(instance, t0=t0, mode=mode, background=background)
        notes = ""
        if not result.feasible:
            notes = f"best-effort after stalling at t={result.stalled_at}"
        return PlanResult(
            scheme=self.name,
            schedule=result.schedule,
            feasible=result.feasible,
            notes=notes,
        )

    def protocol(self, **options) -> ChronusProtocol:
        return ChronusProtocol(verify=bool(options.get("verify", False)))


register_planner(ChronusPlanner())
