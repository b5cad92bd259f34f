"""Security-policy rollout: jointly rerouting many flows through a firewall.

One of the paper's motivating scenarios (Section I): "traffic from one
subnetwork may have to be rerouted via a firewall before entering another
subnetwork".  This example routes several flows across a fat-tree
data-center fabric, reroutes each through a designated firewall aggregation
switch, and schedules the whole batch with the multi-flow extension of the
Chronus scheduler: every flow's timed schedule is computed against the
exact time-varying load of the previously scheduled flows, and the combined
plan is validated jointly (no link over capacity under the sum of all
flows, no flow ever loops).

Run:  python examples/policy_update_batch.py
"""

import random

import networkx as nx

from repro import MultiFlowUpdate, greedy_multiflow, instance_from_paths
from repro.network.topology import fat_tree_topology
from repro.updates import rule_accounting

SEED = 5
FLOW_DEMAND = 0.1  # the full batch fits a unit-capacity link


def to_networkx(network) -> nx.DiGraph:
    graph = nx.DiGraph()
    for link in network.links:
        graph.add_edge(link.src, link.dst, weight=link.delay)
    return graph


def build_flows(network, graph, firewall, rng, wanted=8):
    """Reroute random edge-to-edge flows through the firewall."""
    edges = [n for n in network.switches if n.startswith("edge")]
    instances = []
    attempts = 0
    while len(instances) < wanted and attempts < wanted * 10:
        attempts += 1
        src, dst = rng.sample(edges, 2)
        old_path = nx.shortest_path(graph, src, dst, weight="weight")
        via = nx.shortest_path(graph, src, firewall, weight="weight")
        pruned = graph.copy()
        pruned.remove_nodes_from(set(via) - {firewall, dst})
        if dst not in pruned or not nx.has_path(pruned, firewall, dst):
            continue
        onward = nx.shortest_path(pruned, firewall, dst, weight="weight")
        new_path = via + onward[1:]
        if len(set(new_path)) != len(new_path) or list(old_path) == list(new_path):
            continue
        name = f"{src}->{dst}#{len(instances)}"
        instances.append(
            instance_from_paths(
                network, old_path, new_path, demand=FLOW_DEMAND, flow_name=name
            )
        )
    return instances


def main() -> None:
    rng = random.Random(SEED)
    network = fat_tree_topology(4, capacity=1.0, delay=1)
    graph = to_networkx(network)
    firewall = "agg0_0"
    instances = build_flows(network, graph, firewall, rng)
    print(f"Fat-tree k=4 ({len(network.switches)} switches); firewall at {firewall}")
    print(f"Batch: {len(instances)} flows of {FLOW_DEMAND:g} units each\n")

    update = MultiFlowUpdate(network=network, instances=instances)
    result = greedy_multiflow(update)

    for name, flow_result in result.results.items():
        instance = update.instance(name)
        status = "consistent" if flow_result.feasible else "best-effort"
        print(f"{name:>22}: {' -> '.join(instance.old_path)}")
        print(f"{'':>22}  => via {firewall}, "
              f"{flow_result.schedule.makespan} steps, {status}")

    print(f"\nJoint validation: consistent = {result.report.ok} "
          f"(cross-flow congestion spans: {len(result.report.congestion)})")
    print(f"Batch makespan: {result.makespan} time steps")

    chronus_ops = sum(
        len(update.instance(name).switches_to_update) for name in result.results
    )
    tp_ops = sum(
        rule_accounting(update.instance(name), two_phase=True).operations
        for name in result.results
    )
    if tp_ops:
        print(f"Rule operations: Chronus {chronus_ops} vs two-phase {tp_ops} "
              f"({100 * (1 - chronus_ops / tp_ops):.0f}% saved)")


if __name__ == "__main__":
    main()
