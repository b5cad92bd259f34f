"""Network maintenance: drain a router without transient congestion.

One of the paper's motivating scenarios (Section I): "in order to replace a
faulty router, it may be necessary to temporarily reroute traffic".  This
example builds a WAN-like Waxman topology, routes a flow along its shortest
path, takes a transit router down for maintenance by rerouting the flow
around it, and compares how the protocols handle the transition:

* Chronus finds a timed schedule that is provably congestion- and loop-free
  (or reports that none exists);
* OR's round-based execution is loop-free but congests;
* TP avoids both but doubles the rule footprint.

Run:  python examples/maintenance_reroute.py
"""

import random

import networkx as nx

from repro import greedy_schedule, instance_from_paths, verify_schedule
from repro.analysis.metrics import evaluate_schedule
from repro.core.tree import check_update_feasibility
from repro.network.topology import waxman_topology
from repro.updates import get_planner

SEED = 23


def to_networkx(network) -> nx.DiGraph:
    """Bridge to networkx for shortest-path computations."""
    graph = nx.DiGraph()
    for link in network.links:
        graph.add_edge(link.src, link.dst, weight=link.delay)
    return graph


def main() -> None:
    rng = random.Random(SEED)
    network = waxman_topology(30, rng=rng, alpha=0.6, beta=0.7, max_delay=3)
    graph = to_networkx(network)

    # Pick a well-connected source/destination pair and its shortest path.
    source, destination = "v1", "v30"
    old_path = nx.shortest_path(graph, source, destination, weight="weight")
    while len(old_path) < 4:  # need a transit router to maintain
        source = f"v{rng.randint(1, 15)}"
        destination = f"v{rng.randint(16, 30)}"
        if not nx.has_path(graph, source, destination):
            continue
        old_path = nx.shortest_path(graph, source, destination, weight="weight")
    victim = old_path[len(old_path) // 2]
    print(f"Flow {source} -> {destination} via {' -> '.join(old_path)}")
    print(f"Maintenance target: {victim}")

    # Reroute around the victim router.
    pruned = graph.copy()
    pruned.remove_node(victim)
    if not nx.has_path(pruned, source, destination):
        print("No alternative path exists; maintenance must wait.")
        return
    new_path = nx.shortest_path(pruned, source, destination, weight="weight")
    print(f"Detour: {' -> '.join(new_path)}")

    instance = instance_from_paths(network, old_path, new_path, demand=1.0)

    feasibility = check_update_feasibility(instance)
    print(f"\nAlgorithm 1: congestion-free transition feasible = {feasibility.feasible}")

    greedy = greedy_schedule(instance)
    validation = verify_schedule(instance, greedy.schedule)
    print(f"Chronus schedule: {greedy.schedule}")
    print(f"  consistent: {validation.ok} (claimed feasible: {greedy.feasible})")

    plan = get_planner("or").plan(instance, rng=random.Random(SEED + 2))
    metrics = evaluate_schedule(instance, plan.schedule)
    print(f"OR: {plan.round_count} rounds; realised execution has "
          f"{metrics.congested_timed_links} congested time-extended links, "
          f"{metrics.loop_events} loops")

    tp = get_planner("tp").plan(instance)
    chronus_ops = len(instance.switches_to_update)
    print(f"TP: {tp.rules.operations} rule operations and peak table occupancy "
          f"{tp.rules.peak_rules} (Chronus: {chronus_ops} operations, no extra occupancy)")


if __name__ == "__main__":
    main()
