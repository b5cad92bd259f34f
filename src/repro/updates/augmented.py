"""AUG: greedy timed updates with epsilon capacity augmentation.

Henzinger & Pourdamghani observe that many instances the congestion-free
greedy stalls on become trivially schedulable once links may carry a
*transient* ``(1 + epsilon)`` overload: the scheduler plans against a
relaxed network whose every capacity is scaled by ``1 + epsilon``, while
measurement and the independent verifier keep judging the schedule on the
true instance.  ``epsilon`` is therefore an ablation axis: at ``epsilon=0``
the relaxed network *is* the true network and AUG is bit-identical to
Chronus; at ``epsilon>0`` the greedy gains headroom -- fewer dependency
stalls, smaller makespans -- in exchange for bounded transient congestion
that the metrics report honestly.

On the repo's unit-demand/unit-capacity instances the relaxation first
binds at ``epsilon >= 1`` (two unit flows on a unit link need transient
load ``2.0 <= capacity * (1 + epsilon)``).
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional

from repro.core.greedy import EXACT, greedy_schedule
from repro.core.instance import UpdateInstance
from repro.network.graph import Network
from repro.updates.base import (
    RuleAccounting,
    UpdatePlan,
    UpdateProtocol,
    count_baseline_rules,
)
from repro.updates.registry import PlanResult, Planner, register_planner


def augmented_instance(instance: UpdateInstance, epsilon: float) -> UpdateInstance:
    """``instance`` with every link capacity scaled by ``1 + epsilon``.

    ``epsilon <= 0`` returns the instance unchanged (same object), which
    is what pins AUG at ``epsilon=0`` to Chronus bit-for-bit.
    """
    if epsilon <= 0.0:
        return instance
    network = Network()
    for node in instance.network.switches:
        network.add_switch(node)
    for link in instance.network.links:
        network.add_link(
            link.src,
            link.dst,
            capacity=link.capacity * (1.0 + epsilon),
            delay=link.delay,
        )
    return UpdateInstance(
        network=network,
        flow=instance.flow,
        old_config=instance.old_config,
        new_config=instance.new_config,
    )


class AugmentedProtocol(UpdateProtocol):
    """AUG: Chronus greedy with ``(1 + epsilon)`` transient headroom.

    Args:
        epsilon: Relative transient capacity headroom granted during
            planning; the plan's verdict and feasibility claim are always
            judged on the true capacities.
        mode: Greedy decision mode, see :mod:`repro.core.greedy`.
        verify: Attach an independent verdict (on the *true* instance).
    """

    name = "aug"

    def __init__(
        self,
        epsilon: float = 0.0,
        mode: str = EXACT,
        verify: bool = False,
    ) -> None:
        if epsilon < 0.0:
            raise ValueError("epsilon is a capacity headroom; it cannot be negative")
        self.epsilon = epsilon
        self.mode = mode
        self.verify = verify

    def plan(self, instance: UpdateInstance, t0: int = 0) -> UpdatePlan:
        relaxed = augmented_instance(instance, self.epsilon)
        result = greedy_schedule(relaxed, t0=t0, mode=self.mode)
        schedule = result.schedule
        feasible = result.feasible
        notes = ""
        if not feasible:
            notes = (
                f"no schedule within (1+{self.epsilon:g}) headroom; best-effort "
                f"after stalling at t={result.stalled_at}"
            )
        elif self.epsilon > 0.0:
            # The greedy's claim holds on the relaxed network; the plan's
            # claim must hold on the true one.
            from repro.analysis.metrics import evaluate_schedule

            if not evaluate_schedule(instance, schedule).congestion_free:
                feasible = False
                notes = f"transiently congested within the epsilon={self.epsilon:g} headroom"

        baseline = count_baseline_rules(instance)
        installs = 0
        modifies = 0
        for node in instance.switches_to_update:
            if instance.old_next_hop(node) is None:
                installs += 1
            else:
                modifies += 1
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


class AugPlanner(Planner):
    """Registry entry for epsilon-augmented greedy updates."""

    name = "aug"
    title = "AUG: greedy timed updates with (1+epsilon) transient capacity headroom"
    sweep_order = 4

    def _plan(
        self,
        instance: UpdateInstance,
        *,
        rng: Optional[random.Random] = None,
        background=None,
        t0: int = 0,
        epsilon: float = 0.0,
        **_,
    ) -> PlanResult:
        relaxed = augmented_instance(instance, epsilon)
        result = greedy_schedule(relaxed, t0=t0, background=background)
        notes = f"epsilon={epsilon:g}"
        if not result.feasible:
            notes += f"; best-effort after stalling at t={result.stalled_at}"
        # Feasibility here claims only "the relaxed greedy completed";
        # the sweep measures congestion on the true instance, so epsilon
        # headroom shows up honestly in the congestion-free rate.
        return PlanResult(
            scheme=self.name,
            schedule=result.schedule,
            feasible=result.feasible,
            notes=notes,
        )

    def sweep_options(self, params: Mapping[str, object]) -> Dict[str, object]:
        return {"epsilon": float(params.get("aug_epsilon", 0.0) or 0.0)}

    def protocol(self, **options) -> AugmentedProtocol:
        return AugmentedProtocol(
            epsilon=float(options.get("epsilon", 0.0) or 0.0),
            verify=bool(options.get("verify", False)),
        )

    def fault_schedule(
        self,
        instance: UpdateInstance,
        *,
        node_budget: Optional[int] = None,
        epsilon: float = 0.0,
    ):
        relaxed = augmented_instance(instance, epsilon)
        return greedy_schedule(relaxed).schedule


register_planner(AugPlanner())
