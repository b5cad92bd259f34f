"""Shared instance sweep behind Figs. 7, 8 and 11.

The paper's simulation methodology (Section V-B): the initial routing path
is fixed, the final path is random, both share source and destination; each
data point averages at least 30 runs; Fig. 7 compares 500 update instances
per run.  For every instance the sweep runs:

* **Chronus** -- the greedy timed schedule (best-effort on infeasible
  instances, which then count as congestion cases);
* **OPT** -- the exact search under a time budget (budget exhaustion without
  a schedule also counts as a congestion case);
* **OR** -- round-minimal loop-free rounds realised with random per-switch
  asynchrony, replayed through the exact validator.

This module is the one that knows what a sweep record is:
:func:`sweep_items` expands the grid ``sweep``, ``fig7`` and ``fig8``
register, :func:`sweep_evaluate` turns one item into its record (``key``,
``switch_count``, ``seed`` and :func:`run_instance`'s outcome dict per
scheme), and the figures aggregate those stored dicts as they are:
congestion-case flags, congested time-extended link counts and makespans.

Every instance descends from its :func:`sweep_seed` alone, so serial and
parallel runs produce byte-identical records -- with one caveat: OPT's
and OR's time budgets are *wall-clock* budgets, and a budget that expires
mid-search in one run but not the other changes that instance's outcome.
For strict record identity (tests, the bench gate) bound OPT and OR with
their deterministic node budgets instead and size the wall-clock budgets
so they never bind.

Scheme dispatch goes through :mod:`repro.updates.registry`: the sweep
resolves names with :func:`repro.updates.registry.sweep_planners` and loops
over :class:`repro.updates.registry.Planner` entries -- any registered
scheme (including ``tp`` and ``aug``) joins the sweep without this module
changing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.core.instance import UpdateInstance, random_instance, segmented_instance
from repro.trace.recorder import recorder
from repro.updates.registry import DEFAULT_SCHEMES, SharedEvaluation, sweep_planners


def sweep_seed(base_seed: int, switch_count: int, index: int) -> int:
    """The per-instance seed of sweep item ``index`` at one network size.

    This formula is part of the harness contract: figures cite seeds, and
    parallel runs must regenerate exactly the instances a serial run would.
    Do not change it without regenerating every recorded result.
    """
    return base_seed * 1_000_003 + switch_count * 10_007 + index


def run_instance(
    instance: UpdateInstance, seed: int, params: Mapping[str, object]
) -> Dict[str, Dict[str, object]]:
    """Evaluate ``params["schemes"]`` on one instance: the stored outcomes.

    ``params`` is the scenario's flat parameter mapping; each planner takes
    its own knobs from it
    (:meth:`~repro.updates.registry.Planner.sweep_options`).  Scheme
    names resolve through the planner registry
    (:class:`repro.updates.registry.UnknownSchemeError` on a typo) and
    evaluate in ``sweep_order`` -- the legacy chronus -> opt -> or code
    order -- because all schemes share one per-instance RNG stream and
    reordering would change every realised schedule.

    Each outcome is the dict a sweep record stores per scheme:
    ``congestion_free``, ``congested_timed_links``, ``makespan`` and
    ``verifier_agrees`` -- ``None`` unless ``params["verify"]``, otherwise
    whether the independent verifier (:mod:`repro.validate.verifier`)
    reproduced the outcome's consistency numbers exactly (a ``False``
    means the figures built from the record are measuring a bug).

    The schemes share one :class:`~repro.updates.registry.SharedEvaluation`
    for the length of this call: the default greedy runs once (Chronus'
    plan is OPT's incumbent) and every *distinct* schedule is measured and
    verified once, however many schemes returned it.  The outcomes equal
    those of each scheme evaluated alone.
    """
    rng = random.Random(seed ^ 0x5EED)
    verify = bool(params.get("verify"))
    outcomes: Dict[str, Dict[str, object]] = {}
    shared = SharedEvaluation(instance)
    for planner in sweep_planners(params["schemes"]):
        result = planner.plan(
            instance, rng=rng, shared=shared, **planner.sweep_options(params)
        )
        metrics = shared.metrics(planner, result)
        outcomes[planner.name] = {
            "scheme": planner.name,
            "congestion_free": metrics.congestion_free and result.feasible,
            "congested_timed_links": metrics.congested_timed_links,
            "makespan": metrics.makespan,
            "verifier_agrees": (
                shared.agrees(planner, result, metrics) if verify else None
            ),
        }
    return outcomes


def local_reroute_share(switch_count: int) -> float:
    """Fraction of instances whose final path is a *local* reroute.

    "The final path is based on random routing" spans a spectrum: on small
    networks a random reroute touches a couple of switches (easy for every
    protocol), while on large ones it reshuffles long stretches of the route
    (hard).  The share of local reroutes therefore shrinks with the network
    size; this calibration reproduces the paper's Fig. 7 slopes (OR from
    ~90% congestion-free at 10 switches down to ~15% at 60, Chronus/OPT
    staying above 65%).
    """
    return min(0.9, max(0.15, 1.0 - switch_count / 75.0))


def mixed_instance(count: int, seed: int) -> UpdateInstance:
    """One instance from the mixed local/global reroute workload.

    Every random draw descends from ``seed`` alone -- the workload coin
    flip uses one :class:`random.Random` and the topology generator gets a
    fresh one -- so the instance is identical no matter which process (or
    import order) builds it.
    """
    rng = random.Random(seed)
    if rng.random() < local_reroute_share(count):
        return segmented_instance(
            count,
            rng=random.Random(seed),
            segments=max(1, count // 15),
            max_segment_length=6,
        )
    return random_instance(count, rng=random.Random(seed))


@dataclass(frozen=True)
class SweepItem:
    """The instance one sweep item builds: everything a worker process
    needs to regenerate it, so no ambient state crosses the process
    boundary."""

    switch_count: int
    seed: int

    def build_instance(self) -> UpdateInstance:
        return mixed_instance(self.switch_count, self.seed)


def congestion_free_percentage(
    records: Sequence[Mapping], scheme: str, switch_count: int
) -> float:
    """Percent of instances of one size the scheme kept congestion-free."""
    relevant = [
        r["outcomes"][scheme]
        for r in records
        if r["switch_count"] == switch_count and scheme in r["outcomes"]
    ]
    if not relevant:
        return 0.0
    clean = sum(1 for outcome in relevant if outcome["congestion_free"])
    return 100.0 * clean / len(relevant)


def total_congested_links(
    records: Sequence[Mapping], scheme: str, switch_count: int
) -> int:
    """Sum of congested time-extended links over one size's instances."""
    return sum(
        r["outcomes"][scheme]["congested_timed_links"]
        for r in records
        if r["switch_count"] == switch_count and scheme in r["outcomes"]
    )


def verifier_disagreements(records: Sequence[Mapping]) -> List[str]:
    """``key/scheme`` of every stored outcome with ``verifier_agrees is
    False``: the figures built from it would be measuring a bug."""
    return [
        f"{record['key']}/{scheme}"
        for record in records
        for scheme, outcome in record["outcomes"].items()
        if outcome["verifier_agrees"] is False
    ]


class VerifiedResult:
    """The ``sweep`` / ``fig7`` / ``fig8`` results: ``ok`` unless the
    verifier contradicted a stored outcome, which :meth:`noted` names."""

    disagreements: Sequence[str]  # verifier_disagreements(records)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def noted(self, table: str) -> str:
        if self.ok:
            return table
        return f"{table}\nverifier DISAGREES on: {', '.join(self.disagreements)}"


# --- pipeline scenario -------------------------------------------------


def sweep_items(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """Expand the (switch_counts x instances_per_size) grid.

    Every item's seed follows the :func:`sweep_seed` harness contract, so
    a record cites the exact integer that regenerates its instance.
    """
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
    item: Mapping[str, object], params: Mapping[str, object]
) -> Dict[str, object]:
    """Regenerate one sweep instance and record every scheme's outcome."""
    build = SweepItem(switch_count=int(item["switch_count"]), seed=int(item["seed"]))
    with recorder.timer("core.instance.build"):
        instance = build.build_instance()
    return {
        "key": item["key"],
        "switch_count": build.switch_count,
        "seed": build.seed,
        "outcomes": run_instance(instance, build.seed, params),
    }


@dataclass
class GenericSweepResult(VerifiedResult):
    """Raw sweep records plus the two standard aggregate views."""

    records: Sequence[Mapping]
    switch_counts: Sequence[int]
    schemes: Sequence[str]
    disagreements: Sequence[str]

    def render(self) -> str:
        from repro.analysis.timeseries import render_table

        rows = []
        for count in self.switch_counts:
            row: List[object] = [count]
            for scheme in self.schemes:
                row.append(
                    f"{congestion_free_percentage(self.records, scheme, count):.1f}%"
                    f" / {total_congested_links(self.records, scheme, count)}"
                )
            rows.append(row)
        return self.noted(
            render_table(
                ["switches"] + [f"{s} (free% / cong.links)" for s in self.schemes],
                rows,
                title="Instance sweep -- congestion freedom and congested links",
            )
        )


def _scenario_aggregate(records, params) -> GenericSweepResult:
    return GenericSweepResult(
        records=records,
        switch_counts=tuple(int(c) for c in params["switch_counts"]),
        schemes=tuple(params["schemes"]),
        disagreements=verifier_disagreements(records),
    )


def _register_scenario():
    from repro.pipeline.scenario import Scenario, register

    return register(
        Scenario(
            name="sweep",
            title="The shared instance sweep, with every knob exposed",
            paper="Section V-B methodology",
            description=(
                "The raw grid behind Figs. 7/8/11: seeded instances per "
                "network size, every scheme evaluated per instance.  Use "
                "--set to steer sizes, budgets and schemes directly."
            ),
            defaults={
                "switch_counts": (10, 20, 30),
                "instances_per_size": 10,
                "base_seed": 0,
                "schemes": DEFAULT_SCHEMES,
                "opt_budget": 1.0,
                "or_budget": 0.5,
                "opt_node_budget": None,
                "or_node_budget": None,
                "verify": False,
                "aug_epsilon": 0.0,
            },
            items=sweep_items,
            evaluate=sweep_evaluate,
            aggregate=_scenario_aggregate,
            paper_params={
                "switch_counts": (10, 20, 30, 40, 50, 60),
                "instances_per_size": 500,
            },
        )
    )


SCENARIO = _register_scenario()
