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

The per-instance records carry everything the three figures aggregate:
congestion-case flags, congested time-extended link counts and makespans.

Every instance descends from its :func:`sweep_seed` alone, so serial and
parallel runs produce byte-identical records -- with one caveat:
``opt_budget`` / ``or_budget`` are *wall-clock* budgets, and a budget that
expires mid-search in one run but not the other changes that instance's
outcome.  For strict record identity (tests, the bench gate) bound OPT
and OR with the deterministic ``opt_node_budget`` / ``or_node_budget``
instead and size the wall-clock budgets so they never bind.

Scheme dispatch goes through :mod:`repro.updates.registry`: the sweep
resolves names with :func:`repro.updates.registry.sweep_planners` and loops
over :class:`repro.updates.registry.Planner` entries -- any registered
scheme (including ``tp`` and ``aug``) joins the sweep without this module
changing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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


@dataclass(frozen=True)
class InstanceOutcome:
    """One scheme's result on one instance.

    Attributes:
        verifier_agrees: ``None`` when the sweep ran without conformance
            checking; otherwise whether the independent verifier
            (:mod:`repro.validate.verifier`) reproduced this outcome's
            consistency numbers exactly.  A ``False`` here means the
            figures built from this record are measuring a bug.
    """

    scheme: str
    congestion_free: bool
    congested_timed_links: int
    makespan: Optional[int]
    verifier_agrees: Optional[bool] = None


@dataclass
class SweepRecord:
    """All schemes' outcomes on one instance."""

    switch_count: int
    seed: int
    outcomes: Dict[str, InstanceOutcome] = field(default_factory=dict)


def run_instance(
    instance: UpdateInstance,
    seed: int,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    opt_budget: float = 1.0,
    or_budget: float = 0.5,
    or_skew: int = 3,
    opt_node_budget: Optional[int] = None,
    or_node_budget: Optional[int] = None,
    verify: bool = False,
    aug_epsilon: float = 0.0,
) -> Dict[str, InstanceOutcome]:
    """Evaluate the requested schemes on one instance.

    Scheme names resolve through the planner registry
    (:class:`repro.updates.registry.UnknownSchemeError` on a typo) and
    evaluate in ``sweep_order`` -- the legacy chronus -> opt -> or code
    order -- because all schemes share one per-instance RNG stream and
    reordering would change every realised schedule.

    ``opt_node_budget`` / ``or_node_budget`` bound OPT and OR by explored
    search nodes instead of (or in addition to) wall clock -- deterministic
    budgets, so outcomes stop depending on machine load (see
    :func:`repro.core.optimal.optimal_schedule` and
    :func:`repro.updates.order_replacement.minimize_rounds`).

    ``aug_epsilon`` is AUG's transient capacity headroom (DESIGN.md §15);
    at ``0.0`` AUG plans on the true network and matches Chronus exactly.

    With ``verify=True`` every evaluated schedule is re-checked by the
    independent verifier and the outcome's ``verifier_agrees`` flag is
    filled in (see :class:`InstanceOutcome`).

    The schemes share one :class:`~repro.updates.registry.SharedEvaluation`
    for the length of this call: the default greedy runs once (Chronus'
    plan is OPT's incumbent) and every *distinct* schedule is measured and
    verified once, however many schemes returned it.  The outcomes equal
    those of each scheme evaluated alone.
    """
    rng = random.Random(seed ^ 0x5EED)
    knobs = {
        "opt_budget": opt_budget,
        "or_budget": or_budget,
        "or_skew": or_skew,
        "opt_node_budget": opt_node_budget,
        "or_node_budget": or_node_budget,
        "aug_epsilon": aug_epsilon,
    }
    outcomes: Dict[str, InstanceOutcome] = {}
    shared = SharedEvaluation(instance)
    for planner in sweep_planners(schemes):
        result = planner.plan(
            instance, rng=rng, shared=shared, **planner.sweep_options(knobs)
        )
        metrics = shared.metrics(planner, result)
        outcomes[planner.name] = InstanceOutcome(
            scheme=planner.name,
            congestion_free=metrics.congestion_free and result.feasible,
            congested_timed_links=metrics.congested_timed_links,
            makespan=metrics.makespan,
            verifier_agrees=(
                shared.agrees(planner, result, metrics) if verify else None
            ),
        )
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
    """Self-contained description of one sweep evaluation.

    Carries everything a worker process needs to regenerate and evaluate
    the instance; no ambient state crosses the process boundary.
    """

    switch_count: int
    seed: int
    schemes: tuple
    opt_budget: float
    workload: str = "mixed"
    max_delay: Optional[int] = None
    detour_fraction: float = 1.0
    or_budget: float = 0.5
    opt_node_budget: Optional[int] = None
    or_node_budget: Optional[int] = None
    verify: bool = False
    aug_epsilon: float = 0.0

    def build_instance(self) -> UpdateInstance:
        if self.workload == "mixed":
            return mixed_instance(self.switch_count, self.seed)
        if self.workload == "permutation":
            return random_instance(
                self.switch_count,
                rng=random.Random(self.seed),
                max_delay=self.max_delay,
                detour_fraction=self.detour_fraction,
            )
        raise ValueError(f"unknown workload {self.workload!r}")


def evaluate_sweep_item(item: SweepItem) -> SweepRecord:
    """Worker function: regenerate one instance and evaluate all schemes."""
    record = SweepRecord(switch_count=item.switch_count, seed=item.seed)
    with recorder.timer("core.instance.build"):
        instance = item.build_instance()
    record.outcomes = run_instance(
        instance,
        item.seed,
        schemes=item.schemes,
        opt_budget=item.opt_budget,
        or_budget=item.or_budget,
        opt_node_budget=item.opt_node_budget,
        or_node_budget=item.or_node_budget,
        verify=item.verify,
        aug_epsilon=item.aug_epsilon,
    )
    return record


def congestion_free_percentage(
    records: Sequence[SweepRecord], scheme: str, switch_count: int
) -> float:
    """Percent of instances of one size the scheme kept congestion-free."""
    relevant = [
        r for r in records if r.switch_count == switch_count and scheme in r.outcomes
    ]
    if not relevant:
        return 0.0
    clean = sum(1 for r in relevant if r.outcomes[scheme].congestion_free)
    return 100.0 * clean / len(relevant)


def total_congested_links(
    records: Sequence[SweepRecord], scheme: str, switch_count: int
) -> int:
    """Sum of congested time-extended links over one size's instances."""
    return sum(
        r.outcomes[scheme].congested_timed_links
        for r in records
        if r.switch_count == switch_count and scheme in r.outcomes
    )


# --- pipeline scenario -------------------------------------------------

@dataclass
class GenericSweepResult:
    """Raw sweep records plus the two standard aggregate views."""

    records: List[SweepRecord]
    switch_counts: Sequence[int]
    schemes: Sequence[str]

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
        return render_table(
            ["switches"] + [f"{s} (free% / cong.links)" for s in self.schemes],
            rows,
            title="Instance sweep -- congestion freedom and congested links",
        )


def _scenario_aggregate(records, params) -> GenericSweepResult:
    from repro.pipeline.stages import sweep_records_from_dicts

    return GenericSweepResult(
        records=sweep_records_from_dicts(records),
        switch_counts=tuple(int(c) for c in params["switch_counts"]),
        schemes=tuple(params["schemes"]),
    )


def _register_scenario():
    from repro.pipeline.scenario import Scenario, register
    from repro.pipeline.stages import sweep_evaluate, sweep_items

    return register(
        Scenario(
            name="sweep",
            title="The shared instance sweep, with every knob exposed",
            paper="Section V-B methodology",
            description=(
                "The raw grid behind Figs. 7/8/11: seeded instances per "
                "network size, every scheme evaluated per instance.  Use "
                "--set to steer workload, budgets and schemes directly."
            ),
            defaults={
                "switch_counts": (10, 20, 30),
                "instances_per_size": 10,
                "base_seed": 0,
                "schemes": DEFAULT_SCHEMES,
                "opt_budget": 1.0,
                "or_budget": 0.5,
                "workload": "mixed",
                "max_delay": None,
                "detour_fraction": 1.0,
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
