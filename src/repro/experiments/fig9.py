"""Fig. 9: forwarding-rule overhead, Chronus (box plot) vs. two-phase.

Paper: with 300 switches the average rule count is 596 for TP and 190 for
Chronus -- over 60% savings -- and TP's curve grows much faster with the
network size (TP is not even plotted beyond 400 switches because it leaves
the axis).  What is counted are the rule operations each protocol issues:
TP installs a full versioned rule set and later deletes the old one, while
Chronus sends one in-place modification per rerouted switch.

Pipeline scenario ``fig9``: one record per (size, instance) carrying both
protocols' operation counts; the box statistics are pure aggregation.
``detour_fraction`` controls how much of the network the random final
path traverses; 0.6 reproduces the paper's ratio (~190 Chronus vs ~596 TP
rule operations at 300 switches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.analysis.stats import BoxStats, box_stats, mean
from repro.analysis.timeseries import render_table
from repro.pipeline.context import WorkerContext
from repro.pipeline.scenario import Scenario, register


@dataclass
class Fig9Result:
    switch_counts: List[int]
    chronus_boxes: Dict[int, BoxStats]
    tp_means: Dict[int, float]

    def render(self) -> str:
        rows = []
        for count in self.switch_counts:
            box = self.chronus_boxes[count]
            tp = self.tp_means[count]
            saving = 100.0 * (1 - box.mean / tp) if tp else 0.0
            rows.append(
                [count, f"{box.mean:.0f}", box.row(), f"{tp:.0f}", f"{saving:.0f}%"]
            )
        return render_table(
            ["switches", "chronus mean", "chronus box", "tp mean", "saving"],
            rows,
            title="Fig. 9 -- number of forwarding-rule operations",
        )


def _items(params: Mapping) -> List[Dict[str, object]]:
    base_seed = int(params["base_seed"])
    return [
        {
            "key": f"n{count}-i{index}",
            "switch_count": int(count),
            "index": index,
            "seed": base_seed * 7_000_003 + int(count) * 101 + index,
        }
        for count in params["switch_counts"]
        for index in range(int(params["instances_per_size"]))
    ]


def _evaluate(item: Mapping, params: Mapping, ctx: WorkerContext) -> Dict[str, object]:
    from repro.core.instance import random_instance
    from repro.updates import rule_accounting

    instance = random_instance(
        int(item["switch_count"]),
        seed=int(item["seed"]),
        detour_fraction=float(params["detour_fraction"]),
    )
    return {
        "key": item["key"],
        "switch_count": item["switch_count"],
        "seed": item["seed"],
        # The footprint depends only on the instance: no scheduler runs.
        "chronus_ops": rule_accounting(instance).operations,
        "tp_ops": rule_accounting(instance, two_phase=True).operations,
    }


def _aggregate(records: Sequence[Mapping], params: Mapping) -> Fig9Result:
    counts = [int(count) for count in params["switch_counts"]]
    chronus_boxes: Dict[int, BoxStats] = {}
    tp_means: Dict[int, float] = {}
    for count in counts:
        relevant = [r for r in records if int(r["switch_count"]) == count]
        chronus_boxes[count] = box_stats([float(r["chronus_ops"]) for r in relevant])
        tp_means[count] = mean([float(r["tp_ops"]) for r in relevant])
    return Fig9Result(
        switch_counts=counts, chronus_boxes=chronus_boxes, tp_means=tp_means
    )


SCENARIO = register(
    Scenario(
        name="fig9",
        title="Forwarding-rule operations, Chronus vs. two-phase",
        paper="Fig. 9",
        description=(
            "One record per (size, instance) with both protocols' rule "
            "operation counts; aggregation builds the box statistics."
        ),
        defaults={
            "switch_counts": (100, 200, 300, 400, 500, 600),
            "instances_per_size": 20,
            "base_seed": 3,
            "detour_fraction": 0.6,
        },
        items=_items,
        evaluate=_evaluate,
        aggregate=_aggregate,
        paper_params={"instances_per_size": 500},
    )
)
