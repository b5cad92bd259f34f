#!/usr/bin/env python3
"""Planner-registry smoke gate: every scheme registers and dispatches.

The registry (DESIGN.md §15) is the single dispatch point for every
figure, the gate and the service; this script (``make planner-smoke``,
CI's ``quick-bench`` job) fails fast if a refactor drops a planner or
breaks registry-routed evaluation:

1. the registered name set is exactly {chronus, or, tp, opt, aug};
2. capability flags still route verification correctly (tp is the only
   two-phase scheme, opt/or the only exact ones);
3. unknown names raise :class:`UnknownSchemeError` naming the registry;
4. a tiny deterministic sweep dispatches *all five* schemes through the
   registry with the independent verifier on -- every outcome must come
   back with ``verifier_agrees`` True;
5. AUG at epsilon=0 is outcome-identical to Chronus on every instance;
6. there is one plan type: every registered scheme plans a seeded
   instance into an ``UpdatePlan`` that serialises, parses back equal
   (dispatched schedule, rounds, rules, claim; same bytes when written
   again) and is judged by ``planner.verify`` -- and ``repro.updates``
   exports no second plan dataclass;
7. there is one execution path: every registered scheme's ``executor``
   flag is one ``execute_plan`` dispatches (its plan runs to completion on
   a zero-latency testbed and reads back as the dispatched schedule), and
   ``repro.controller`` exports one executor per strategy family, no
   second stack.

Usage::

    python scripts/planner_smoke.py
    python scripts/planner_smoke.py --instances 8 --quiet

Exit status: 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.pipeline.cli import script_parser  # noqa: E402

EXPECTED = {"chronus", "or", "tp", "opt", "aug"}

#: Deterministic budgets: the exact searches stop on explored nodes, the
#: wall clock never binds.
BUDGETS = dict(
    opt_budget=600.0,
    or_budget=600.0,
    opt_node_budget=20_000,
    or_node_budget=20_000,
)


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument(
        "--instances",
        type=int,
        default=4,
        metavar="N",
        help="seeded instances in the dispatch sweep (default 4)",
    )
    parser.add_argument(
        "--switches", type=int, default=12, help="network size (default 12)"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-check lines"
    )
    args = parser.parse_args(argv)

    import dataclasses
    import random

    import repro.controller
    import repro.updates
    from repro.controller import (
        ConstantDelayModel,
        build_testbed,
        execute_plan,
        realized_schedule,
    )
    from repro.core.serialization import plan_from_json, plan_to_json
    from repro.experiments.sweep import mixed_instance, run_instance, sweep_seed
    from repro.updates.registry import (
        UnknownSchemeError,
        UpdatePlan,
        available_schemes,
        get_planner,
    )

    failures = []

    def check(ok: bool, label: str, detail: str = "") -> None:
        if not args.quiet or not ok:
            print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(label)

    names = set(available_schemes())
    check(names == EXPECTED, "registered schemes", f"{sorted(names)}")

    check(
        {n for n in names if get_planner(n).two_phase} == {"tp"},
        "two_phase flag routes tp alone",
    )
    check(
        {n for n in names if get_planner(n).exact} == {"opt", "or"},
        "exact flag routes opt/or alone",
    )

    try:
        get_planner("chrnous")
        check(False, "unknown scheme raises")
    except UnknownSchemeError as exc:
        check("chronus" in exc.valid, "unknown scheme raises", str(exc))

    all_schemes = tuple(sorted(names))
    disagreements = 0
    aug_mismatches = 0
    for index in range(args.instances):
        seed = sweep_seed(0, args.switches, index)
        instance = mixed_instance(args.switches, seed)
        outcomes = run_instance(
            instance, seed, {"schemes": all_schemes, "verify": True, **BUDGETS}
        )
        for name, outcome in outcomes.items():
            if outcome["verifier_agrees"] is not True:
                disagreements += 1
                print(f"     {name} seed={seed}: verifier_agrees={outcome['verifier_agrees']}")
        chronus, aug = outcomes["chronus"], outcomes["aug"]
        fields = ("congestion_free", "congested_timed_links", "makespan")
        if [aug[field] for field in fields] != [chronus[field] for field in fields]:
            aug_mismatches += 1
    check(
        disagreements == 0,
        "registry dispatch x independent verifier",
        f"{args.instances} instance(s) x {len(all_schemes)} scheme(s)",
    )
    check(aug_mismatches == 0, "aug at epsilon=0 equals chronus")

    plan_types = sorted(
        name
        for name, exported in vars(repro.updates).items()
        if dataclasses.is_dataclass(exported)
        and "schedule" in {field.name for field in dataclasses.fields(exported)}
    )
    check(plan_types == ["UpdatePlan"], "one plan type exported", f"{plan_types}")
    instance = mixed_instance(args.switches, sweep_seed(0, args.switches, 0))
    for name in all_schemes:
        planner = get_planner(name)
        plan = planner.plan(instance, node_budget=BUDGETS["opt_node_budget"])
        text = plan_to_json(plan)
        parsed = plan_from_json(text)
        verdict = planner.verify(instance, plan.dispatched)
        check(
            type(plan) is UpdatePlan
            and type(parsed) is UpdatePlan
            and parsed.schedule == plan.dispatched
            and list(parsed.rounds) == list(plan.rounds)
            and parsed.rules == plan.rules
            and parsed.feasible == plan.claims_consistency
            and plan_to_json(parsed) == text
            and (verdict.ok or not plan.claims_consistency),
            f"{name}: plan -> document -> plan, judged by planner.verify",
            f"claims_consistency={plan.claims_consistency} verdict.ok={verdict.ok}",
        )

    performers = sorted(
        name for name in repro.controller.__all__ if name.startswith("perform_")
    )
    check(
        performers == ["perform_resilient_two_phase", "perform_resilient_update"],
        "one executor per strategy family exported",
        f"{performers}",
    )
    for name in all_schemes:
        planner = get_planner(name)
        plan = planner.plan(instance, node_budget=BUDGETS["opt_node_budget"])
        sim, plane, controller = build_testbed(
            instance,
            network_delay=ConstantDelayModel(0.0),
            install_delay=ConstantDelayModel(0.0),
            rng=random.Random(0),
        )
        trace = execute_plan(controller, plane, plan, start_at=1.0)
        sim.run(until=1.0 + plan.dispatched.makespan + 10.0)
        realized, off_grid = realized_schedule(plan, trace, start_at=1.0)
        check(
            trace.completed
            and controller.pending_barriers() == 0
            and realized is not None
            and not off_grid
            and all(
                when == plan.dispatched.time_of(node)
                for node, when in realized.times.items()
            ),
            f"{name}: execute_plan dispatches executor={planner.executor!r}",
            f"realized={realized}",
        )

    if failures:
        print(f"planner smoke: {len(failures)} check(s) FAILED")
        return 1
    if not args.quiet:
        print("planner smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
