"""The plan-conformance gate (``make validate``): seeded sweeps that fail
on any disagreement -- the defence against *silent mis-measurement*.

Every consistency number in the figures flows through two independent
analytic engines (the interval tracker and the
:mod:`repro.validate.verifier` trajectory replay) and one fluid
simulation.  :func:`check_plan` holds one plan to both engine pairs and
to its document:

* **planner <-> verifier** -- a plan claiming feasibility must get a clean
  verdict, and the verdict of the dispatched schedule must agree with the
  planner's own measurement of it (``Planner.measure``: the interval
  tracker, or the exact overtaking-span formula for two-phase plans) on
  every field ``Planner.conformance`` compares -- congestion-freedom, the
  congested time-extended link count, and the presence of loops and black
  holes;
* **verifier <-> simulator** -- :func:`repro.validate.differential_replay`
  executes the plan on the fluid data plane through the controller stack
  and cross-checks the measured link timelines and drop volumes against
  the verdict;
* **plan document** -- ``plan_from_json(plan_to_json(plan))`` gives back
  the dispatched schedule, the rounds, the rule accounting and the
  consistency claim, and re-serialises to the same bytes: what a
  controller archives or is handed is the plan that was checked.

Scenario ``gate`` sweeps the figures' own grid (:func:`sweep_items`), so
a failure names an instance the figures would produce; each record stores
the disagreements of every scheme's plan as dicts, enough to rerun one
alone.  The result is ``ok`` only without any (else the CLI exits 1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Mapping, Sequence

from repro.core.instance import UpdateInstance
from repro.experiments.sweep import mixed_instance, sweep_items
from repro.pipeline.scenario import Scenario, register
from repro.updates.registry import get_planner, planners_for
from repro.validate.verifier import verify_plan

#: Explored-node cap for the exact searches (OPT, OR's round minimiser).
#: Deterministic -- unlike a wall-clock budget -- so a gate run produces
#: the same verdicts on every machine.
DEFAULT_NODE_BUDGET = 20_000

#: Integer-step installation latency range of the fluid replay: realised
#: asynchrony for round-executed plans (timed and two-phase flips are
#: scheduled and do not move).
INSTALL_SKEW = 1

#: Every registered scheme, in registry order.
SCHEMES = ("aug", "chronus", "opt", "or", "tp")


@dataclass(frozen=True)
class Disagreement:
    """One engine pair disagreeing on one instance.

    Attributes:
        seed: The instance seed (regenerate with :func:`mixed_instance`).
        switch_count: The instance's network size.
        protocol: Protocol short name.
        kind: ``"planner-verifier"``, ``"verifier-simulator"`` or
            ``"plan-document"``.
        detail: Human-readable description of the mismatch.
    """

    seed: int
    switch_count: int
    protocol: str
    kind: str
    detail: str

    def render(self) -> str:
        return (
            f"[{self.kind}] protocol={self.protocol} "
            f"switches={self.switch_count} seed={self.seed}\n"
            + "\n".join(f"    {line}" for line in self.detail.splitlines())
        )


def check_plan(
    instance: UpdateInstance,
    plan,
    *,
    seed: int,
    switch_count: int,
    replay: bool = True,
) -> List[Disagreement]:
    """All conformance checks for one plan on one instance.

    ``replay=False`` skips the fluid differential replay (the expensive
    half); the planner <-> verifier and document checks always run.
    """
    out: List[Disagreement] = []
    verdict = verify_plan(instance, plan)

    def disagree(kind: str, detail: str) -> None:
        out.append(Disagreement(seed, switch_count, plan.scheme, kind, detail))

    # A feasibility claim must be backed by a clean independent verdict
    # (schemes that make none -- OR -- are held to the engine checks only).
    if plan.claims_consistency and not verdict.ok:
        disagree(
            "planner-verifier",
            "plan claims transient consistency but the verifier found "
            "violations:\n" + verdict.describe(),
        )

    # The planner's own measurement of what the controller is handed (the
    # interval tracker, or TP's overtaking-span formula) must match the
    # verifier's from-scratch derivation field by field.
    planner = get_planner(plan.scheme)
    metrics = planner.measure(instance, replace(plan, schedule=plan.dispatched))
    fields = planner.conformance(metrics, verdict)
    if fields:
        disagree(
            "planner-verifier",
            "measured metrics disagree with the verifier:\n" + "\n".join(fields),
        )

    # Imported on first check, as the replay below: registering the
    # scenarios must not load the document format.
    from repro.core.serialization import plan_from_json, plan_to_json

    text = plan_to_json(plan)
    parsed = plan_from_json(text)
    lost = [
        name
        for name, kept in (
            ("schedule", parsed.schedule == plan.dispatched),
            ("rounds", list(parsed.rounds) == list(plan.rounds)),
            ("rules", parsed.rules == plan.rules),
            ("claim", parsed.feasible == plan.claims_consistency),
            ("bytes", plan_to_json(parsed) == text),
        )
        if not kept
    ]
    if lost:
        disagree(
            "plan-document",
            "plan_from_json(plan_to_json(plan)) does not give the plan back: "
            + ", ".join(lost),
        )

    if replay:
        # Imported on first replay: it loads the fluid data plane, which
        # registering the scenarios must not.
        from repro.validate.differential import differential_replay

        report = differential_replay(
            plan, instance=instance, seed=seed, install_skew=INSTALL_SKEW
        )
        if not report.ok:
            disagree("verifier-simulator", report.describe())
    return out


@dataclass
class GateReport:
    """Every disagreement of one gate run (none: all engines agree)."""

    instances: int
    switch_counts: Sequence[int]
    schemes: Sequence[str]
    checked: int
    disagreements: List[Disagreement]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def render(self) -> str:
        head = (
            f"validation gate: {self.instances} instance(s) x "
            f"{'/'.join(self.schemes)} at "
            f"{'/'.join(str(count) for count in self.switch_counts)} switches, "
            f"{self.checked} plan(s) checked"
        )
        if self.ok:
            return head + " -- all engines agree"
        lines = [head + f" -- {len(self.disagreements)} DISAGREEMENT(S)"]
        lines.extend(d.render() for d in self.disagreements)
        return "\n".join(lines)


def _evaluate(item: Mapping, params: Mapping) -> Dict[str, object]:
    """Plan every scheme on one seeded instance and check each plan."""
    count, seed = int(item["switch_count"]), int(item["seed"])
    instance = mixed_instance(count, seed)
    disagreements = []
    for planner in planners_for(params["schemes"]):
        plan = planner.plan(instance, node_budget=DEFAULT_NODE_BUDGET)
        disagreements.extend(
            asdict(d)
            for d in check_plan(instance, plan, seed=seed, switch_count=count)
        )
    return {"switch_count": count, "seed": seed, "disagreements": disagreements}


def _aggregate(records: Sequence[Mapping], params: Mapping) -> GateReport:
    schemes = tuple(params["schemes"])
    return GateReport(
        instances=int(params["instances_per_size"]),
        switch_counts=tuple(int(count) for count in params["switch_counts"]),
        schemes=schemes,
        checked=len(records) * len(schemes),
        disagreements=[
            Disagreement(**d) for record in records for d in record["disagreements"]
        ],
    )


SCENARIO = register(
    Scenario(
        name="gate",
        title="Plan conformance: planner, verifier and fluid replay agree",
        paper="Defs. 1-3 (every planner held to the paper's contract)",
        description=(
            "Seeded mixed-reroute instances, every scheme planned under a "
            "node budget; each record lists the planner <-> verifier and "
            "verifier <-> simulator disagreements on one instance."
        ),
        defaults={
            "switch_counts": (8,),
            "instances_per_size": 50,
            "base_seed": 0,
            "schemes": SCHEMES,
        },
        items=sweep_items,
        evaluate=_evaluate,
        aggregate=_aggregate,
    )
)
