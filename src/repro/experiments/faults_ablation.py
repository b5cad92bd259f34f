"""Faults ablation: consistency and completion time vs. fault severity.

The paper evaluates Chronus over a well-behaved control plane; this
experiment asks what each scheme's guarantees are *worth* when that
assumption degrades.  A :class:`repro.faults.FaultPlan` (message loss and
duplication, switch apply-failures, crash-stop, stragglers, optional clock
drift) is scaled by a single severity knob and applied to seeded reroute
instances from the figures' ``mixed_instance`` workload; each scheme runs
through :func:`repro.controller.resilient.execute_plan` -- the one execution
path -- with retries, idempotent resends and a deadline-triggered rollback.

Consistency is judged by the independent oracle of :mod:`repro.validate`:

* a run that **completes** has its realised update times read back off the
  integer time grid (all latencies are whole time steps, as in the
  differential replay) and re-verified with :func:`verify_schedule` /
  :func:`verify_two_phase` -- a violation means the *realised* schedule
  broke Definition 2/3 even though every switch acknowledged;
* a run that **aborts** (retries exhausted, crash, deadline) is judged by
  the fluid plane itself: any black-holed volume or over-capacity link
  after the update started counts as a violation.

Every record also cross-checks oracle and plane: a clean verdict with a
dirty plane (drops or congestion the verifier missed) sets
``oracle_agrees = False`` and fails ``scripts/faults.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.controller import build_testbed, execute_plan, realized_schedule
from repro.controller.channel import ConstantDelayModel, StepDelayModel
from repro.core.verdict import Verdict
from repro.experiments.sweep import mixed_instance, sweep_seed
from repro.faults import FaultPlan, severity_spec
from repro.pipeline.context import RunContext
from repro.pipeline.runner import run_in_memory
from repro.updates.registry import UpdatePlan, get_planner, planners_for

#: Default ablation trio; any registered scheme (e.g. ``aug``) can join
#: via ``schemes=`` / ``--set schemes=``.
SCHEMES = ("chronus", "or", "tp")

#: Fault-plan seed separator so the plan's streams never mirror the
#: channel's latency stream (both descend from the instance seed).
_FAULT_STREAM = 0xFA17

#: Default severity grid of the ablation axis (0 = perfect network).
DEFAULT_SEVERITIES = (0.0, 0.25, 0.5, 1.0)

#: Steps between a two-phase plan's start and its ingress flip: room for the
#: shadow installs (and a retry) to be acknowledged first.
_FLIP_DELAY = 3


@dataclass(frozen=True)
class FaultRunRecord:
    """One scheme's outcome on one faulted instance.

    Attributes:
        scheme: The registered scheme name that produced this run.
        severity: Fault severity of this run.
        seed: The instance seed (``sweep_seed`` contract).
        completed: Every switch acknowledged and the update finished.
        aborted: The resilient executor gave up and rolled back.
        violated: Consistency was lost -- by the oracle's verdict when the
            run completed, by fluid evidence (drops/congestion) otherwise.
        verdict_ok: The oracle's judgement of the realised schedule
            (``None`` for aborted or off-grid runs, where no realised
            schedule exists on the integer grid).
        oracle_agrees: ``False`` when a clean verdict coexists with a dirty
            fluid plane -- the cross-check :mod:`scripts.faults` gates on.
            ``None`` when the verdict does not apply.
        completion_steps: Update duration in schedule steps (completed
            runs; abort runs report the time until rollback finished).
        retries: Total FlowMod resends across switches.
        rolled_back: Switches rolled back during abort.
        late: Scheduled FlowMods that arrived after their execution time.
        dropped/duplicated/apply_failures: The fault plan's message tally.
        crashed: Crash-stopped switches.
        off_grid: A realised apply missed the integer time grid (clock
            drift); the verdict is then computed on rounded times.
        fluid_clean: The fluid plane saw no drops and no over-capacity
            link after the update began.
        abort_reason: Why the run aborted, when it did.
    """

    scheme: str
    severity: float
    seed: int
    completed: bool
    aborted: bool
    violated: bool
    verdict_ok: Optional[bool]
    oracle_agrees: Optional[bool]
    completion_steps: Optional[float]
    retries: int
    rolled_back: int
    late: int
    dropped: int
    duplicated: int
    apply_failures: int
    crashed: int
    off_grid: bool
    fluid_clean: bool
    abort_reason: str = ""


@dataclass
class FaultsAblationResult:
    """All runs of one ablation sweep plus the aggregate curves."""

    severities: Tuple[float, ...]
    schemes: Tuple[str, ...]
    instances_per_point: int
    records: List[FaultRunRecord] = field(default_factory=list)

    def _select(self, scheme: str, severity: float) -> List[FaultRunRecord]:
        return [
            r for r in self.records if r.scheme == scheme and r.severity == severity
        ]

    def violation_rate(self, scheme: str, severity: float) -> float:
        """Fraction of runs (completed or not) that lost consistency."""
        runs = self._select(scheme, severity)
        if not runs:
            return 0.0
        return sum(r.violated for r in runs) / len(runs)

    def abort_rate(self, scheme: str, severity: float) -> float:
        runs = self._select(scheme, severity)
        if not runs:
            return 0.0
        return sum(r.aborted for r in runs) / len(runs)

    def mean_completion(self, scheme: str, severity: float) -> Optional[float]:
        """Mean completion time (steps) over the runs that completed."""
        steps = [
            r.completion_steps
            for r in self._select(scheme, severity)
            if r.completed and r.completion_steps is not None
        ]
        if not steps:
            return None
        return sum(steps) / len(steps)

    def mean_retries(self, scheme: str, severity: float) -> float:
        runs = self._select(scheme, severity)
        if not runs:
            return 0.0
        return sum(r.retries for r in runs) / len(runs)

    @property
    def oracle_disagreements(self) -> List[FaultRunRecord]:
        return [r for r in self.records if r.oracle_agrees is False]

    @property
    def oracle_ok(self) -> bool:
        """No run where the verdict and the fluid plane told different stories."""
        return not self.oracle_disagreements

    def render(self) -> str:
        lines = [
            "Faults ablation -- consistency vs. control-plane fault severity",
            f"({self.instances_per_point} instances/point; violation = lost "
            "consistency, judged by repro.validate on completed runs and by "
            "the fluid plane on aborted ones)",
            "",
            f"{'scheme':<8} {'severity':>8} {'violation%':>10} {'abort%':>7} "
            f"{'mean steps':>10} {'retries':>8}",
        ]
        for scheme in self.schemes:
            for severity in self.severities:
                completion = self.mean_completion(scheme, severity)
                lines.append(
                    f"{scheme:<8} {severity:>8.2f} "
                    f"{100 * self.violation_rate(scheme, severity):>9.1f}% "
                    f"{100 * self.abort_rate(scheme, severity):>6.1f}% "
                    f"{completion if completion is not None else float('nan'):>10.2f} "
                    f"{self.mean_retries(scheme, severity):>8.2f}"
                )
            lines.append("")
        if self.oracle_ok:
            lines.append("oracle cross-check: verdict and fluid plane agree on every run")
        else:
            lines.append(
                f"oracle cross-check: {len(self.oracle_disagreements)} "
                "DISAGREEMENT(S) -- clean verdict over a dirty plane:"
            )
            for r in self.oracle_disagreements:
                lines.append(
                    f"  {r.scheme} severity={r.severity:g} seed={r.seed}"
                )
        return "\n".join(lines)


def run_faults_ablation(
    severities: Sequence[float] = DEFAULT_SEVERITIES,
    instances_per_point: int = 5,
    switch_count: int = 8,
    base_seed: int = 7,
    schemes: Sequence[str] = SCHEMES,
    time_unit: float = 1.0,
    deadline_steps: int = 60,
    max_retries: int = 3,
    drift_bound: float = 0.0,
    or_node_budget: int = 20_000,
    aug_epsilon: float = 0.0,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FaultsAblationResult:
    """Run the ``faults`` scenario in memory: every scheme over every severity.

    Args:
        severities: Fault-severity grid (0 disables all faults).
        instances_per_point: Seeded instances per (scheme, severity) cell;
            the same instances are reused across cells so curves are
            paired.
        switch_count: Network size of every instance.
        base_seed: Base of the ``sweep_seed`` contract.
        schemes: Registered scheme names (see
            :func:`repro.updates.registry.available_schemes`).
        time_unit: True seconds per schedule step.
        deadline_steps: Abort-and-roll-back deadline, in steps after the
            update starts.
        max_retries: FlowMod resends per switch before giving up.
        drift_bound: Clock-drift magnitude bound in seconds (0 keeps every
            realised apply on the integer grid, so the oracle is exact).
        or_node_budget: Branch-and-bound budget of OR's round minimiser.
        aug_epsilon: AUG's transient capacity headroom.
        progress: Called with ``(done, total)`` after every run.
    """
    return run_in_memory(
        "faults",
        overrides={
            "severities": tuple(severities),
            "instances_per_point": instances_per_point,
            "switch_count": switch_count,
            "base_seed": base_seed,
            "schemes": tuple(schemes),
            "time_unit": time_unit,
            "deadline_steps": deadline_steps,
            "max_retries": max_retries,
            "drift_bound": drift_bound,
            "or_node_budget": or_node_budget,
            "aug_epsilon": aug_epsilon,
        },
        ctx=RunContext(progress=progress),
    )


def _run_one(
    plan: UpdatePlan,
    *,
    severity: float,
    seed: int,
    time_unit: float,
    deadline_steps: int,
    max_retries: int,
    drift_bound: float,
) -> FaultRunRecord:
    """Execute one plan on its instance under one fault severity."""
    instance = plan.instance
    warmup_steps = instance.old_path_delay + 2
    start_true = warmup_steps * time_unit
    deadline_true = start_true + deadline_steps * time_unit

    spec = severity_spec(
        severity,
        crash_window=(start_true, start_true + 0.75 * deadline_steps * time_unit),
        drift_bound=drift_bound,
    )
    fault_plan = FaultPlan(spec, seed=seed ^ _FAULT_STREAM)
    sim, plane, controller = build_testbed(
        instance,
        delay_scale=time_unit,
        network_delay=ConstantDelayModel(0.0),
        install_delay=StepDelayModel(time_unit=time_unit, max_steps=1),
        rng=random.Random(seed),
        fault_plan=fault_plan,
    )
    trace = execute_plan(
        controller, plane, plan,
        start_at=start_true, time_unit=time_unit,
        max_retries=max_retries, deadline=deadline_true,
    )

    # The deadline guarantees the run resolves (finish or abort) by
    # ``deadline_true``; the extra margin lets rollback messages land and
    # the fluid plane settle before it is judged.
    sim.run(until=deadline_true + 10 * time_unit)

    verdict: Optional[Verdict] = None
    off_grid = False
    if trace.completed:
        realized, off_grid = realized_schedule(
            plan, trace, start_at=start_true, time_unit=time_unit
        )
        if realized is not None:
            verdict = get_planner(plan.scheme).verify(instance, realized)

    drop_tolerance = 1e-6 * time_unit * max(1.0, instance.demand)
    dropped_volume = plane.total_dropped_volume()
    congested = any(
        link.peak_utilization(since=start_true) > link.capacity + 1e-6
        for link in plane.links.values()
    )
    fluid_clean = dropped_volume <= drop_tolerance and not congested

    if verdict is not None and not off_grid:
        violated = not verdict.ok
        # One-directional cross-check: a clean verdict must mean a clean
        # plane.  (A dirty verdict may leave no fluid trace -- e.g. a loop
        # the rollback resolved before much volume circulated.)
        oracle_agrees: Optional[bool] = (not verdict.ok) or fluid_clean
    else:
        violated = not fluid_clean
        oracle_agrees = None

    completion_steps: Optional[float] = None
    if trace.finished_at is not None:
        completion_steps = (trace.finished_at - start_true) / time_unit

    return FaultRunRecord(
        scheme=plan.scheme,
        severity=severity,
        seed=seed,
        completed=trace.completed,
        aborted=trace.aborted,
        violated=violated,
        verdict_ok=None if verdict is None or off_grid else verdict.ok,
        oracle_agrees=oracle_agrees,
        completion_steps=completion_steps,
        retries=trace.total_retries,
        rolled_back=len(trace.rolled_back),
        late=len(trace.late),
        dropped=fault_plan.stats.dropped,
        duplicated=fault_plan.stats.duplicated,
        apply_failures=fault_plan.stats.apply_failures,
        crashed=len(fault_plan.stats.crashed),
        off_grid=off_grid,
        fluid_clean=fluid_clean,
        abort_reason=trace.abort_reason,
    )


# --- pipeline scenario -------------------------------------------------

def _scenario_items(params: Mapping) -> List[Dict[str, object]]:
    """One item per (instance index, severity, scheme)."""
    planners_for(params["schemes"])  # fail fast on unregistered names
    base_seed = int(params["base_seed"])
    switch_count = int(params["switch_count"])
    return [
        {
            "key": f"i{index}-sev{severity:g}-{scheme}",
            "index": index,
            "severity": float(severity),
            "scheme": scheme,
            "seed": sweep_seed(base_seed, switch_count, index),
        }
        for index in range(int(params["instances_per_point"]))
        for severity in params["severities"]
        for scheme in params["schemes"]
    ]


def _scenario_evaluate(item: Mapping, params: Mapping, ctx) -> Dict[str, object]:
    """Plan and execute one (instance, severity, scheme) cell.

    What is executed is the plan's dispatched schedule (the nominal rounds
    of a round-based scheme; of a two-phase plan only the ingress flip
    step matters -- the shadow installs ship ahead).  Plans are
    severity-independent and deterministic (node budget, no wall clock),
    so the cells of one instance stay paired across severities.
    """
    from dataclasses import asdict

    instance = mixed_instance(int(params["switch_count"]), int(item["seed"]))
    plan = get_planner(str(item["scheme"])).plan(
        instance,
        node_budget=int(params["or_node_budget"]),
        epsilon=float(params.get("aug_epsilon", 0.0) or 0.0),
        flip_delay=_FLIP_DELAY,
    )
    record = _run_one(
        plan,
        severity=float(item["severity"]),
        seed=int(item["seed"]),
        time_unit=float(params["time_unit"]),
        deadline_steps=int(params["deadline_steps"]),
        max_retries=int(params["max_retries"]),
        drift_bound=float(params["drift_bound"]),
    )
    return {"key": item["key"], "index": item["index"], **asdict(record)}


def _scenario_aggregate(records: Sequence[Mapping], params: Mapping) -> FaultsAblationResult:
    result = FaultsAblationResult(
        severities=tuple(float(s) for s in params["severities"]),
        schemes=tuple(params["schemes"]),
        instances_per_point=int(params["instances_per_point"]),
    )
    field_names = {f.name for f in FaultRunRecord.__dataclass_fields__.values()}
    for record in records:
        result.records.append(
            FaultRunRecord(**{k: v for k, v in record.items() if k in field_names})
        )
    return result


def _register_scenario():
    from repro.pipeline.scenario import Scenario, register

    return register(
        Scenario(
            name="faults",
            title="Consistency and completion time vs. control-plane fault severity",
            paper="beyond the paper (fault ablation)",
            description=(
                "Every scheme runs seeded reroute instances under a "
                "deterministic fault plan through the resilient executor; "
                "each record is one judged run (violation, abort, retries, "
                "oracle cross-check)."
            ),
            defaults={
                "severities": DEFAULT_SEVERITIES,
                "instances_per_point": 5,
                "switch_count": 8,
                "base_seed": 7,
                "schemes": SCHEMES,
                "time_unit": 1.0,
                "deadline_steps": 60,
                "max_retries": 3,
                "drift_bound": 0.0,
                "or_node_budget": 20_000,
                "aug_epsilon": 0.0,
            },
            items=_scenario_items,
            evaluate=_scenario_evaluate,
            aggregate=_scenario_aggregate,
            paper_params={"instances_per_point": 30, "switch_count": 12},
        )
    )


SCENARIO = _register_scenario()


def main() -> str:
    result = run_faults_ablation()
    text = result.render()
    print(text)
    return text


if __name__ == "__main__":
    main()
