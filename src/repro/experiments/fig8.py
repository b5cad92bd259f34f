"""Fig. 8: number of congested links (time-extended network) vs. size.

Paper: same workload as Fig. 7; Chronus decreases the number of congested
time-extended links by ~70% relative to OR, increasingly so at larger
sizes.

Pipeline scenario ``fig8``: the same shared sweep grid as ``fig7`` (with
its own base seed and scheme pair); the figure sums congested
time-extended links per size from the stored records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.analysis.timeseries import render_table
from repro.experiments.sweep import sweep_evaluate, sweep_items, total_congested_links
from repro.experiments.sweep import VerifiedResult, verifier_disagreements
from repro.pipeline.scenario import Scenario, register

SCHEMES = ("chronus", "or")


@dataclass
class Fig8Result(VerifiedResult):
    switch_counts: List[int]
    congested: Dict[str, List[int]]
    disagreements: List[str]

    def render(self) -> str:
        rows = []
        for index, count in enumerate(self.switch_counts):
            chronus = self.congested["chronus"][index]
            order = self.congested["or"][index]
            saving = 100.0 * (1 - chronus / order) if order else 0.0
            rows.append([count, chronus, order, f"{saving:.0f}%"])
        return self.noted(
            render_table(
                ["switches", "chronus", "or", "reduction"],
                rows,
                title="Fig. 8 -- congested links of the time-extended network (sum)",
            )
        )


def _aggregate(records: Sequence[Mapping], params: Mapping) -> Fig8Result:
    counts = [int(count) for count in params["switch_counts"]]
    congested = {
        scheme: [total_congested_links(records, scheme, count) for count in counts]
        for scheme in params["schemes"]
    }
    return Fig8Result(counts, congested, verifier_disagreements(records))


SCENARIO = register(
    Scenario(
        name="fig8",
        title="Congested links of the time-extended network vs. network size",
        paper="Fig. 8",
        description=(
            "Shared mixed-reroute sweep over chronus/or; the figure sums "
            "each size's congested time-extended links from the records."
        ),
        defaults={
            "switch_counts": (10, 20, 30, 40, 50, 60),
            "instances_per_size": 20,
            "base_seed": 2,
            "schemes": SCHEMES,
            "opt_budget": 1.0,
            "or_budget": 0.5,
            "opt_node_budget": None,
            "or_node_budget": None,
            "verify": False,
        },
        items=sweep_items,
        evaluate=sweep_evaluate,
        aggregate=_aggregate,
        paper_params={"instances_per_size": 500},
    )
)
