"""Quickstart: schedule the paper's Fig. 1 update with Chronus.

Walks the motivating example end to end:

1. build the six-switch instance (old path ``v1..v6``, new routing through
   ``v1 -> v4 -> v3 -> v2 -> v6``);
2. show why naive strategies fail (transient loops / congestion);
3. run Algorithm 1 (feasibility), Algorithm 2 (the greedy timed schedule)
   with its Algorithm 3 dependency sets, and OPT;
4. judge every schedule with the independent verifier (Definitions 1-3).

Run:  python examples/quickstart.py
"""

from repro import (
    check_update_feasibility,
    greedy_schedule,
    motivating_example,
    optimal_schedule,
    verify_schedule,
)
from repro.core.schedule import UpdateSchedule


def main() -> None:
    instance = motivating_example()
    print("Old path:", " -> ".join(instance.old_path))
    print("New path:", " -> ".join(instance.new_path))
    print("Switches to update:", ", ".join(instance.switches_to_update))
    print()

    # Naive strategy 1: update everything at once -> transient loops.
    all_at_once = UpdateSchedule(
        {node: 0 for node in instance.switches_to_update}, start_time=0
    )
    verdict = verify_schedule(instance, all_at_once)
    print(f"All-at-once update: {len(verdict.loops)} forwarding-loop events "
          f"(switches revisited: {', '.join(verdict.loop_nodes)})")

    # Naive strategy 2: the Fig. 2(b) order -> congestion on (v4, v3).
    fig2b = UpdateSchedule(
        {"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 1}, start_time=0
    )
    verdict = verify_schedule(instance, fig2b)
    for violation in verdict.congestion:
        src, dst = violation.link
        for t in range(violation.start, violation.end + 1):
            print(f"Fig. 2(b) order: link {src}->{dst} carries "
                  f"{verdict.loads[violation.link][t]:g} units at t{t} "
                  f"(capacity {violation.capacity:g})")
    print()

    # Algorithm 1: does a consistent timed sequence exist at all?
    feasibility = check_update_feasibility(instance)
    print(f"Algorithm 1 (tree feasibility check): feasible = {feasibility.feasible}")

    # Algorithm 2: the Chronus greedy schedule, with its dependency sets.
    greedy = greedy_schedule(instance, keep_dependency_log=True)
    print(f"Algorithm 2 (greedy): {greedy.schedule}")
    for t, deps in greedy.dependency_log:
        chains = ", ".join("(" + " -> ".join(chain) + ")" for chain in deps.chains)
        print(f"  t{t}: dependency relation set {{{chains}}}")
    validation = verify_schedule(instance, greedy.schedule)
    print(f"  congestion-free: {validation.congestion_free}, "
          f"loop-free: {validation.loop_free}, makespan: {greedy.makespan} steps")

    # OPT: the exact minimum.
    opt = optimal_schedule(instance)
    print(f"OPT: {opt.schedule} (makespan {opt.makespan}, proven: {opt.proven})")


if __name__ == "__main__":
    main()
