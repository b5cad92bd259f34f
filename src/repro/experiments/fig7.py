"""Fig. 7: percentage of congestion cases vs. network size.

Paper: sizes 10..60 (step 10), 500 update instances per run, >= 30 runs.
At 60 switches, more than 65% of instances are congestion-free under
Chronus and OPT, against ~15% for OR -- Chronus tracks OPT closely and
beats OR by ~60 percentage points.

Pipeline scenario ``fig7``: items come from the shared sweep grid
(:mod:`repro.pipeline.stages`), records carry every scheme's outcome per
instance, and the figure itself is a pure aggregation over records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.analysis.timeseries import render_table
from repro.experiments.sweep import congestion_free_percentage
from repro.pipeline.scenario import Scenario, register
from repro.pipeline.stages import (
    sweep_evaluate,
    sweep_items,
    sweep_records_from_dicts,
)

SCHEMES = ("opt", "chronus", "or")


@dataclass
class Fig7Result:
    switch_counts: List[int]
    percentages: Dict[str, List[float]]  # scheme -> per-size %

    def render(self) -> str:
        schemes = list(self.percentages)
        rows = []
        for index, count in enumerate(self.switch_counts):
            rows.append(
                [count]
                + [round(self.percentages[scheme][index], 1) for scheme in schemes]
            )
        return render_table(
            ["switches"] + [f"{s} % congestion-free" for s in schemes],
            rows,
            title="Fig. 7 -- congestion-free update instances (%)",
        )


def _aggregate(records: Sequence[Mapping], params: Mapping) -> Fig7Result:
    swept = sweep_records_from_dicts(records)
    counts = [int(count) for count in params["switch_counts"]]
    percentages = {
        scheme: [
            congestion_free_percentage(swept, scheme, count) for count in counts
        ]
        for scheme in params["schemes"]
    }
    return Fig7Result(switch_counts=counts, percentages=percentages)


SCENARIO = register(
    Scenario(
        name="fig7",
        title="Percentage of congestion-free update instances vs. network size",
        paper="Fig. 7",
        description=(
            "Shared mixed-reroute sweep; each record holds every scheme's "
            "congestion outcome on one seeded instance, the figure is the "
            "per-size congestion-free percentage."
        ),
        defaults={
            "switch_counts": (10, 20, 30, 40, 50, 60),
            "instances_per_size": 20,
            "base_seed": 1,
            "schemes": SCHEMES,
            "opt_budget": 1.0,
            "or_budget": 0.5,
            "opt_node_budget": None,
            "or_node_budget": None,
            "workload": "mixed",
            "verify": False,
        },
        items=sweep_items,
        evaluate=sweep_evaluate,
        aggregate=_aggregate,
        paper_params={"instances_per_size": 500, "opt_budget": 2.0},
    )
)
