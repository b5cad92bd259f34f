"""Fig. 11: CDF of the update time, Chronus vs. OPT.

Paper: 400 switches; most Chronus updates finish within 15 time units and
OPT within 13 -- Chronus achieves near-optimal update times.

Pipeline scenario ``fig11``: candidate instances are a static index grid
(so runs are resumable), evaluated in index order; the scenario's
``enough`` predicate stops the run once the target number of instances
contributed.  Only feasible instances contribute (the paper's update time
is defined for completed congestion-free updates), so serial, parallel
and resumed runs collect the identical sample -- the first ``instances``
contributing indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import cdf_points, percentile
from repro.analysis.timeseries import render_table
from repro.core.instance import segmented_instance
from repro.pipeline.context import RunContext, WorkerContext
from repro.pipeline.runner import run_in_memory
from repro.pipeline.scenario import Scenario, register
from repro.updates.registry import planners_for

#: Candidate indices evaluated per requested instance before giving up.
ATTEMPT_FACTOR = 10

#: The default CDF pair; ``--set schemes=aug,opt`` compares any two
#: registered planners instead.
DEFAULT_PAIR = ("chronus", "opt")


@dataclass
class Fig11Result:
    """Paired makespan samples of the two compared schemes.

    ``chronus_times``/``opt_times`` hold the first/second scheme's sample
    (named for the default pair; ``schemes`` carries the actual labels).
    """

    chronus_times: List[int]
    opt_times: List[int]
    schemes: Tuple[str, str] = DEFAULT_PAIR

    def cdfs(self) -> Dict[str, List[Tuple[float, float]]]:
        return {
            self.schemes[0]: cdf_points([float(v) for v in self.chronus_times]),
            self.schemes[1]: cdf_points([float(v) for v in self.opt_times]),
        }

    def render(self) -> str:
        cdfs = self.cdfs()
        times = sorted(
            {value for points in cdfs.values() for value, _ in points}
        )
        rows = []
        for value in times:
            row: List[object] = [int(value)]
            for scheme in self.schemes:
                prob = max(
                    (p for v, p in cdfs[scheme] if v <= value), default=0.0
                )
                row.append(f"{prob:.2f}")
            rows.append(row)
        table = render_table(
            ["time units"] + [f"{scheme} CDF" for scheme in self.schemes],
            rows,
            title="Fig. 11 -- CDF of the update time",
        )
        summary = (
            f"\np95: {self.schemes[0]}="
            f"{percentile([float(v) for v in self.chronus_times], 95):.0f}"
            f" {self.schemes[1]}="
            f"{percentile([float(v) for v in self.opt_times], 95):.0f} time units"
        )
        return table + summary


def _items(params: Mapping) -> List[Dict[str, object]]:
    schemes = tuple(params.get("schemes", DEFAULT_PAIR))
    planners_for(schemes)  # fail fast on unregistered names
    if len(schemes) != 2:
        raise ValueError(f"Fig. 11 compares exactly two schemes, got {schemes!r}")
    base_seed = int(params["base_seed"])
    switch_count = int(params["switch_count"])
    attempts = int(params["instances"]) * ATTEMPT_FACTOR
    return [
        {
            "key": f"i{index}",
            "index": index,
            "switch_count": switch_count,
            "seed": base_seed * 11_000_003 + switch_count * 17 + index,
        }
        for index in range(attempts)
    ]


def _evaluate(item: Mapping, params: Mapping, ctx: WorkerContext) -> Dict[str, object]:
    """One candidate: both schemes' makespans, or nulls when the instance
    does not contribute (some scheme's plan is infeasible: greedy stalled,
    exact search empty-handed), which keeps the CDFs paired."""
    schemes = tuple(params.get("schemes", DEFAULT_PAIR))
    instance = segmented_instance(int(item["switch_count"]), seed=int(item["seed"]))
    record: Dict[str, object] = {
        "key": item["key"],
        "index": item["index"],
        "seed": item["seed"],
        **{scheme: None for scheme in schemes},
    }
    samples: Dict[str, int] = {}
    for planner in planners_for(schemes):
        plan = planner.plan(instance, **planner.sweep_options(params))
        if not plan.feasible:
            return record  # non-contributing: every scheme stays null
        samples[planner.name] = plan.schedule.makespan
    record.update(samples)
    return record


def _contributors(records: Sequence[Mapping], lead_scheme: str) -> List[Mapping]:
    ordered = sorted(records, key=lambda r: int(r["index"]))
    return [r for r in ordered if r[lead_scheme] is not None]


def _enough(records: Sequence[Mapping], params: Mapping) -> bool:
    lead = tuple(params.get("schemes", DEFAULT_PAIR))[0]
    return len(_contributors(records, lead)) >= int(params["instances"])


def _aggregate(records: Sequence[Mapping], params: Mapping) -> Fig11Result:
    schemes = tuple(params.get("schemes", DEFAULT_PAIR))
    sample = _contributors(records, schemes[0])[: int(params["instances"])]
    return Fig11Result(
        chronus_times=[int(r[schemes[0]]) for r in sample],
        opt_times=[int(r[schemes[1]]) for r in sample],
        schemes=schemes,  # type: ignore[arg-type]
    )


SCENARIO = register(
    Scenario(
        name="fig11",
        title="CDF of the update time, Chronus vs. OPT",
        paper="Fig. 11",
        description=(
            "Seeded candidate instances evaluated in index order until the "
            "target sample size contributed; records carry both makespans."
        ),
        defaults={
            "switch_count": 400,
            "instances": 30,
            "base_seed": 5,
            "opt_budget": 2.0,
            "opt_node_budget": None,
            "schemes": DEFAULT_PAIR,
        },
        items=_items,
        evaluate=_evaluate,
        aggregate=_aggregate,
        enough=_enough,
        paper_params={"instances": 500, "opt_budget": 10.0},
    )
)


def run_fig11(
    switch_count: int = 400,
    instances: int = 30,
    base_seed: int = 5,
    opt_budget: float = 2.0,
    max_workers: int = 1,
    schemes: Sequence[str] = DEFAULT_PAIR,
) -> Fig11Result:
    """Collect update-time samples for both schemes.

    Paper scale: 400 switches with the locally-rerouted (segmented
    reversal) workload; OPT runs under an anytime budget and contributes
    its incumbent.  Candidates are evaluated in index-ordered batches
    (parallel when ``max_workers > 1``) but always *consumed* serially in
    index order, so the sample is identical for any worker count; a
    parallel run may merely evaluate a few candidates past the stopping
    point.
    """
    return run_in_memory(
        "fig11",
        overrides={
            "switch_count": switch_count,
            "instances": instances,
            "base_seed": base_seed,
            "opt_budget": opt_budget,
            "schemes": tuple(schemes),
        },
        ctx=RunContext(workers=max_workers),
    )


def main() -> str:
    result = run_fig11()
    text = result.render()
    print(text)
    return text


if __name__ == "__main__":
    main()
