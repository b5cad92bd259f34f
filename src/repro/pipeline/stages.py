"""Shared scenario stages: the instance-sweep grid behind Figs. 7, 8, 11.

The pattern the whole refactor generalises started here: the TP and OR
baselines were already shared across figures through
:mod:`repro.experiments.sweep`; these functions lift that sweep into the
declarative item/evaluate/record shape every sweep-backed scenario
(``fig7``, ``fig8``, ``sweep``) registers, instead of each module
re-implementing grid expansion and scheme dispatch.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.pipeline.context import WorkerContext


def sweep_items(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """Expand the (switch_counts x instances_per_size) grid.

    Every item's seed follows the ``sweep_seed`` harness contract, so a
    record cites the exact integer that regenerates its instance.
    """
    from repro.experiments.sweep import sweep_seed

    base_seed = int(params["base_seed"])
    return [
        {
            "key": f"n{count}-i{index}",
            "switch_count": int(count),
            "index": index,
            "seed": sweep_seed(base_seed, int(count), index),
        }
        for count in params["switch_counts"]  # type: ignore[union-attr]
        for index in range(int(params["instances_per_size"]))
    ]


def sweep_evaluate(
    item: Mapping[str, object],
    params: Mapping[str, object],
    ctx: WorkerContext,
) -> Dict[str, object]:
    """Regenerate one sweep instance, evaluate the schemes, record it."""
    from repro.experiments.sweep import SweepItem, evaluate_sweep_item

    verify = bool(ctx.verify or params.get("verify"))
    sweep_item = SweepItem(
        switch_count=int(item["switch_count"]),
        seed=int(item["seed"]),
        schemes=tuple(params["schemes"]),  # type: ignore[arg-type]
        opt_budget=float(params.get("opt_budget", 1.0)),
        workload=str(params.get("workload", "mixed")),
        max_delay=params.get("max_delay"),  # type: ignore[arg-type]
        detour_fraction=float(params.get("detour_fraction", 1.0)),
        or_budget=float(params.get("or_budget", 0.5)),
        opt_node_budget=params.get("opt_node_budget"),  # type: ignore[arg-type]
        or_node_budget=params.get("or_node_budget"),  # type: ignore[arg-type]
        verify=verify,
        aug_epsilon=float(params.get("aug_epsilon", 0.0) or 0.0),
    )
    record = evaluate_sweep_item(sweep_item)
    return {
        "key": item["key"],
        "switch_count": record.switch_count,
        "seed": record.seed,
        # InstanceOutcome is flat, so its field dict is the record; asdict
        # would recurse into every field to find that out.
        "outcomes": {
            scheme: dict(vars(outcome)) for scheme, outcome in record.outcomes.items()
        },
    }


def sweep_records_from_dicts(records: Sequence[Mapping[str, object]]):
    """Rehydrate stored sweep records for the figures' aggregations."""
    from repro.experiments.sweep import InstanceOutcome, SweepRecord

    rebuilt = []
    for record in records:
        swept = SweepRecord(
            switch_count=int(record["switch_count"]), seed=int(record["seed"])
        )
        swept.outcomes = {
            scheme: InstanceOutcome(**outcome)
            for scheme, outcome in record["outcomes"].items()  # type: ignore[union-attr]
        }
        rebuilt.append(swept)
    return rebuilt
