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

from repro.core.greedy import greedy_schedule
from repro.core.instance import UpdateInstance
from repro.core.tracker import make_tracker
from repro.network.graph import Network
from repro.updates.registry import (
    Planner,
    SharedEvaluation,
    UpdatePlan,
    register_planner,
)


def augmented_instance(instance: UpdateInstance, epsilon: float) -> UpdateInstance:
    """``instance`` with every link capacity scaled by ``1 + epsilon``.

    ``epsilon == 0`` returns the instance unchanged (same object), which
    is what pins AUG at ``epsilon=0`` to Chronus bit-for-bit.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon is a capacity headroom; it cannot be negative")
    if epsilon == 0.0:
        return instance
    network = Network()
    for node in instance.network.switches:
        network.add_switch(node)
    capacities = instance.network.capacity_map()
    for (src, dst), delay in instance.network.delay_map().items():
        network.add_link(
            src, dst, capacity=capacities[(src, dst)] * (1.0 + epsilon), delay=delay
        )
    return UpdateInstance(
        network=network,
        flow=instance.flow,
        old_config=instance.old_config,
        new_config=instance.new_config,
    )


class AugPlanner(Planner):
    """AUG: Chronus greedy with ``(1 + epsilon)`` transient headroom.

    ``epsilon`` is the relative transient capacity headroom granted during
    planning; the plan's feasibility claim is always judged on the true
    capacities.
    """

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
        shared: Optional[SharedEvaluation] = None,
        **_,
    ) -> UpdatePlan:
        relaxed = augmented_instance(instance, epsilon)
        result = greedy_schedule(relaxed, t0=t0, background=background)
        schedule = result.schedule
        feasible = result.feasible
        notes = ""
        if not feasible:
            notes = (
                f"no schedule within (1+{epsilon:g}) headroom; best-effort "
                f"after stalling at t={result.stalled_at}"
            )
        elif epsilon > 0.0 and self._congests(instance, schedule, background, shared):
            # The greedy's claim holds on the relaxed network; the plan's
            # claim must hold on the true one.
            feasible = False
            notes = f"transiently congested within the epsilon={epsilon:g} headroom"
        return UpdatePlan(
            scheme=self.name,
            schedule=schedule,
            feasible=feasible,
            notes=notes,
            instance=instance,
        )

    def _congests(self, instance, schedule, background, shared) -> bool:
        """Does ``schedule`` congest the true capacities?  One replay -- on a
        sweep item the very one its measurement would repeat (``shared``)."""
        if shared is not None and background is None:
            claimed = UpdatePlan(scheme=self.name, schedule=schedule, instance=instance)
            return not shared.metrics(self, claimed).congestion_free
        tracker = make_tracker(instance, t0=schedule.t0, background=background)
        for time, nodes in schedule.rounds():
            tracker.apply_round(nodes, time)
        return bool(tracker.congestion_spans())

    def sweep_options(self, params: Mapping[str, object]) -> Dict[str, object]:
        return {"epsilon": float(params.get("aug_epsilon", 0.0) or 0.0)}


register_planner(AugPlanner())
