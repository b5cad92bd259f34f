"""The plan-conformance gate: seeded sweeps that fail on any disagreement.

The gate is the repo's defence against *silent mis-measurement*: every
consistency number in the figures flows through two independent analytic
engines (the interval tracker and the :mod:`repro.validate.verifier`
trajectory replay) and one fluid simulation.  For each seeded instance and
each protocol the gate checks

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
  the verdict.

Any disagreement is a bug in one of the engines (or the executor between
them); the gate renders each one with enough context to rerun it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from repro.core.instance import UpdateInstance
from repro.updates.registry import available_schemes, get_planner, planners_for
from repro.validate.differential import differential_replay
from repro.validate.verifier import verify_plan

#: Explored-node cap for the exact searches (OPT, OR's round minimiser).
#: Deterministic -- unlike a wall-clock budget -- so a gate run produces
#: the same verdicts on every machine.
DEFAULT_NODE_BUDGET = 20_000


@dataclass(frozen=True)
class Disagreement:
    """One engine pair disagreeing on one instance.

    Attributes:
        seed: The instance seed (regenerate with
            :func:`repro.experiments.sweep.mixed_instance`).
        switch_count: The instance's network size.
        protocol: Protocol short name.
        kind: ``"planner-verifier"`` or ``"verifier-simulator"``.
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


@dataclass
class GateReport:
    """Outcome of one gate run."""

    instances: int
    switch_count: int
    protocols: Sequence[str]
    checked: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def describe(self) -> str:
        head = (
            f"validation gate: {self.instances} instance(s) x "
            f"{'/'.join(self.protocols)} at {self.switch_count} switches, "
            f"{self.checked} plan(s) checked"
        )
        if self.ok:
            return head + " -- all engines agree"
        lines = [head + f" -- {len(self.disagreements)} DISAGREEMENT(S)"]
        lines.extend(d.render() for d in self.disagreements)
        return "\n".join(lines)


def check_plan(
    instance: UpdateInstance,
    plan,
    *,
    seed: int,
    switch_count: int,
    replay: bool = True,
    install_skew: int = 0,
    time_unit: float = 1.0,
) -> List[Disagreement]:
    """All conformance checks for one plan on one instance."""
    out: List[Disagreement] = []
    verdict = verify_plan(instance, plan)

    def planner_bug(detail: str) -> None:
        out.append(
            Disagreement(
                seed=seed,
                switch_count=switch_count,
                protocol=plan.scheme,
                kind="planner-verifier",
                detail=detail,
            )
        )

    # A feasibility claim must be backed by a clean independent verdict
    # (schemes that make none -- OR -- are held to the engine checks only).
    if plan.claims_consistency and not verdict.ok:
        planner_bug(
            "plan claims transient consistency but the verifier found "
            "violations:\n" + verdict.describe()
        )

    # The planner's own measurement of what the controller is handed (the
    # interval tracker, or TP's overtaking-span formula) must match the
    # verifier's from-scratch derivation field by field.
    planner = get_planner(plan.scheme)
    metrics = planner.measure(instance, replace(plan, schedule=plan.dispatched))
    fields = planner.conformance(metrics, verdict)
    if fields:
        planner_bug(
            "measured metrics disagree with the verifier:\n" + "\n".join(fields)
        )

    if replay:
        report = differential_replay(
            plan,
            instance=instance,
            time_unit=time_unit,
            seed=seed,
            install_skew=install_skew,
        )
        if not report.ok:
            out.append(
                Disagreement(
                    seed=seed,
                    switch_count=switch_count,
                    protocol=plan.scheme,
                    kind="verifier-simulator",
                    detail=report.describe(),
                )
            )
    return out


def run_gate(
    instance_count: int = 50,
    switch_count: int = 8,
    base_seed: int = 0,
    protocols: Optional[Sequence[str]] = None,
    replay: bool = True,
    node_budget: Optional[int] = DEFAULT_NODE_BUDGET,
    install_skew: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> GateReport:
    """Sweep seeded instances through every engine pair.

    Instances come from the same workload and seeding contract as the
    figures (:func:`repro.experiments.sweep.mixed_instance` seeded by
    :func:`repro.experiments.sweep.sweep_seed`), so a gate failure points
    at an instance the experiment pipeline would actually produce.

    Args:
        instance_count: Seeded instances to sweep.
        switch_count: Network size of every instance.
        base_seed: Base of the :func:`sweep_seed` contract.
        protocols: Scheme names to gate; every registered scheme by
            default.
        replay: Also run the fluid differential replay (the expensive
            half); planner <-> verifier checks always run.
        node_budget: Deterministic search budget for OPT and OR.
        install_skew: Integer-step installation latency range of the
            replays (realised asynchrony for round-executed plans; timed
            and two-phase flips are scheduled and do not move).
        progress: Optional ``callback(done, total)`` after each instance.
    """
    from repro.experiments.sweep import mixed_instance, sweep_seed

    if protocols is None:
        protocols = available_schemes()
    planners = planners_for(protocols)
    report = GateReport(
        instances=instance_count, switch_count=switch_count, protocols=tuple(protocols)
    )
    for index in range(instance_count):
        seed = sweep_seed(base_seed, switch_count, index)
        instance = mixed_instance(switch_count, seed)
        for planner in planners:
            plan = planner.plan(instance, node_budget=node_budget)
            report.checked += 1
            report.disagreements.extend(
                check_plan(
                    instance,
                    plan,
                    seed=seed,
                    switch_count=switch_count,
                    replay=replay,
                    install_skew=install_skew,
                )
            )
        if progress is not None:
            progress(index + 1, instance_count)
    return report
