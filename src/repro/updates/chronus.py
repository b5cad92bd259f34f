"""The Chronus planner: timed updates from the greedy MUTP scheduler.

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
from repro.updates.registry import (
    Planner,
    SharedEvaluation,
    UpdatePlan,
    register_planner,
)


class ChronusPlanner(Planner):
    """Chronus: congestion- and loop-free timed updates (Algorithm 2).

    ``mode`` is the greedy decision mode (``"exact"`` or ``"paper"``), see
    :mod:`repro.core.greedy`.
    """

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
        shared: Optional[SharedEvaluation] = None,
        **_,
    ) -> UpdatePlan:
        if shared is not None and mode == EXACT and background is None:
            result = shared.greedy(t0)
        else:
            result = greedy_schedule(instance, t0=t0, mode=mode, background=background)
        notes = ""
        if not result.feasible:
            notes = (
                "no congestion-free schedule exists; completed best-effort "
                f"after stalling at t={result.stalled_at}"
            )
        return UpdatePlan(
            scheme=self.name,
            schedule=result.schedule,
            feasible=result.feasible,
            notes=notes,
            instance=instance,
        )


register_planner(ChronusPlanner())
